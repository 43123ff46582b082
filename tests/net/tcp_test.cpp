// Real-socket transport tests (loopback), including a fully verified
// AccountNet shuffle executed over TCP between two threads.
#include <gtest/gtest.h>

#include <thread>

#include "accountnet/core/shuffle.hpp"
#include "accountnet/net/tcp.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::net {
namespace {

TEST(Tcp, FrameRoundTrip) {
  Acceptor acceptor(0);
  ASSERT_TRUE(acceptor.valid());
  std::optional<MessageSocket> server;
  std::thread accept_thread([&] { server = acceptor.accept_one(); });
  auto client = connect_to("127.0.0.1", acceptor.port());
  accept_thread.join();
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(server.has_value());

  EXPECT_TRUE(client->send(7, bytes_of("hello over tcp")));
  const auto frame = server->receive();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 7u);
  EXPECT_EQ(frame->payload, bytes_of("hello over tcp"));

  // And back.
  EXPECT_TRUE(server->send(9, bytes_of("reply")));
  const auto back = client->receive();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, 9u);
  EXPECT_EQ(back->payload, bytes_of("reply"));
}

TEST(Tcp, EmptyAndLargeFrames) {
  Acceptor acceptor(0);
  std::optional<MessageSocket> server;
  std::thread accept_thread([&] { server = acceptor.accept_one(); });
  auto client = connect_to("127.0.0.1", acceptor.port());
  accept_thread.join();
  ASSERT_TRUE(client && server);

  EXPECT_TRUE(client->send(1, Bytes{}));
  Bytes big(1 << 20);
  Rng rng(3);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_TRUE(client->send(2, big));

  const auto empty = server->receive();
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->payload.empty());
  const auto large = server->receive();
  ASSERT_TRUE(large.has_value());
  EXPECT_EQ(large->payload, big);
}

TEST(Tcp, MultipleFramesPreserveOrder) {
  Acceptor acceptor(0);
  std::optional<MessageSocket> server;
  std::thread accept_thread([&] { server = acceptor.accept_one(); });
  auto client = connect_to("127.0.0.1", acceptor.port());
  accept_thread.join();
  ASSERT_TRUE(client && server);
  for (std::uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->send(i, Bytes{static_cast<std::uint8_t>(i)}));
  }
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto f = server->receive();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, i);
    EXPECT_EQ(f->payload[0], static_cast<std::uint8_t>(i));
  }
}

TEST(Tcp, EofYieldsNullopt) {
  Acceptor acceptor(0);
  std::optional<MessageSocket> server;
  std::thread accept_thread([&] { server = acceptor.accept_one(); });
  auto client = connect_to("127.0.0.1", acceptor.port());
  accept_thread.join();
  ASSERT_TRUE(client && server);
  client->close();
  EXPECT_FALSE(server->receive().has_value());
}

TEST(Tcp, OversizedSendRejectedLocally) {
  Acceptor acceptor(0);
  std::optional<MessageSocket> server;
  std::thread accept_thread([&] { server = acceptor.accept_one(); });
  auto client = connect_to("127.0.0.1", acceptor.port());
  accept_thread.join();
  ASSERT_TRUE(client && server);
  // One byte over the frame cap must be refused without touching the wire.
  Bytes oversized(MessageSocket::kMaxFrameSize + 1);
  EXPECT_FALSE(client->send(1, oversized));
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Bind, learn the port, close: connecting afterwards must fail.
  std::uint16_t dead_port;
  {
    Acceptor a(0);
    dead_port = a.port();
  }
  EXPECT_FALSE(connect_to("127.0.0.1", dead_port).has_value());
}

TEST(Tcp, BadHostFails) {
  EXPECT_FALSE(connect_to("not-an-ip", 1).has_value());
}

TEST(Tcp, VerifiedShuffleOverRealSockets) {
  // Two protocol nodes in two threads perform the complete verifiable
  // shuffle over loopback TCP with real Ed25519 + ECVRF.
  const auto provider = crypto::make_real_crypto();
  core::NodeConfig config;
  config.max_peerset = 4;
  config.shuffle_length = 2;

  auto make = [&](const std::string& addr, std::uint8_t seed_byte) {
    auto signer = provider->make_signer(Bytes(32, seed_byte));
    core::PeerId id{addr, signer->public_key()};
    return std::make_unique<core::NodeState>(
        id, provider->make_signer(Bytes(32, seed_byte)), config);
  };
  auto alice = make("alice", 1);
  auto bob = make("bob", 2);
  auto bn = make("bn", 3);
  bn->init_as_seed();
  std::vector<core::PeerId> world = {bn->self(), alice->self(), bob->self()};
  for (auto* n : {alice.get(), bob.get()}) {
    std::vector<core::PeerId> others;
    for (const auto& id : world) {
      if (!(id == n->self())) others.push_back(id);
    }
    n->apply_join(bn->self(), bn->signer().sign(core::join_stamp_payload(n->self().addr)),
                  others);
  }
  // Force alice's VRF to pick bob: burn rounds until it does (bounded).
  std::optional<core::PartnerChoice> choice;
  for (int tries = 0; tries < 64; ++tries) {
    choice = core::choose_partner(*alice);
    ASSERT_TRUE(choice.has_value());
    if (choice->partner == bob->self()) break;
    alice->skip_round();
    choice.reset();
  }
  ASSERT_TRUE(choice.has_value()) << "VRF never selected bob";

  enum : std::uint32_t { kRoundQ = 1, kRoundR = 2, kOffer = 3, kResponse = 4 };

  Acceptor acceptor(0);
  ASSERT_TRUE(acceptor.valid());
  std::string bob_error;
  std::thread bob_thread([&] {
    auto sock = acceptor.accept_one();
    if (!sock) {
      bob_error = "accept failed";
      return;
    }
    const auto rq = sock->receive();
    if (!rq || rq->type != kRoundQ) {
      bob_error = "bad round query";
      return;
    }
    wire::Writer w;
    w.u64(bob->round());
    sock->send(kRoundR, std::move(w).take());
    const auto offer_frame = sock->receive();
    if (!offer_frame || offer_frame->type != kOffer) {
      bob_error = "bad offer frame";
      return;
    }
    const auto offer = core::ShuffleOffer::decode(offer_frame->payload);
    if (const auto v = core::verify_offer(offer, *bob, bob->round(), *provider); !v) {
      bob_error = "verify_offer: " + v.reason;
      return;
    }
    const auto resp = core::make_response_and_commit(*bob, offer);
    sock->send(kResponse, resp.encode());
  });

  auto sock = connect_to("127.0.0.1", acceptor.port());
  ASSERT_TRUE(sock.has_value());
  ASSERT_TRUE(sock->send(kRoundQ, Bytes{}));
  const auto round_frame = sock->receive();
  ASSERT_TRUE(round_frame && round_frame->type == kRoundR);
  wire::Reader r(round_frame->payload);
  const core::Round bob_round = r.u64();
  const auto offer = core::make_offer(*alice, *choice, bob_round);
  ASSERT_TRUE(sock->send(kOffer, offer.encode()));
  const auto resp_frame = sock->receive();
  ASSERT_TRUE(resp_frame && resp_frame->type == kResponse);
  const auto resp = core::ShuffleResponse::decode(resp_frame->payload);
  ASSERT_TRUE(core::verify_response(resp, *alice, offer, *provider));
  core::apply_offer_outcome(*alice, offer, resp);

  bob_thread.join();
  EXPECT_EQ(bob_error, "");
  // Both committed: bob now knows alice.
  EXPECT_TRUE(bob->peerset().contains(alice->self()));
  EXPECT_EQ(core::UpdateHistory::reconstruct(core::make_history_proof(*alice).suffix),
            alice->peerset());
}

TEST(Tcp, SendToClosedPeerFailsWithoutSigpipe) {
  // Regression: MessageSocket::send must use MSG_NOSIGNAL — a peer that
  // closed mid-conversation surfaces as a false return, not a SIGPIPE that
  // kills the process (which is exactly what a crashed daemon's counterpart
  // would otherwise suffer).
  Acceptor acceptor(0);
  ASSERT_TRUE(acceptor.valid());
  std::optional<MessageSocket> server;
  std::thread accept_thread([&] { server = acceptor.accept_one(); });
  auto client = connect_to("127.0.0.1", acceptor.port());
  accept_thread.join();
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(server.has_value());

  server->close();
  // First send may land in kernel buffers before the RST is processed; keep
  // pushing until the failure surfaces. If SIGPIPE were raised, the test
  // binary would die here.
  bool failed = false;
  const Bytes chunk(64 * 1024, std::uint8_t{0x5a});
  for (int i = 0; i < 256 && !failed; ++i) {
    failed = !client->send(1, chunk);
  }
  EXPECT_TRUE(failed);
}

}  // namespace
}  // namespace accountnet::net
