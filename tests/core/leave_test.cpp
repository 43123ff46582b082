// Leave-protocol specifics: graceful self-reported departure and the
// ping-confirmation guard against forged leave notices.
#include <gtest/gtest.h>

#include "accountnet/core/node.hpp"
#include "accountnet/util/rng.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::retained;

struct LeaveNet {
  LeaveNet() : net(sim, sim::netem_latency(), 321) {
    config.protocol.max_peerset = 5;
    config.protocol.shuffle_length = 3;
    config.shuffle_period = sim::seconds(2);
    config.depth = 2;
  }

  std::vector<Node*> build(std::size_t n) {
    std::vector<Node*> out;
    for (std::size_t i = 0; i < n; ++i) {
      Bytes seed(32);
      Rng rng(8000 + i);
      for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
      nodes.push_back(std::make_unique<Node>(net, "g" + std::to_string(100 + i),
                                             *provider, seed, config, rng.next_u64()));
      out.push_back(nodes.back().get());
    }
    out[0]->start_as_seed();
    for (std::size_t i = 1; i < n; ++i) {
      sim.schedule(sim::milliseconds(static_cast<std::int64_t>(50 * i)),
                   [=] { out[i]->start_join(out[i - 1]->id().addr); });
    }
    sim.run_until(sim.now() + sim::seconds(40));
    return out;
  }

  sim::Simulator sim;
  std::unique_ptr<crypto::CryptoProvider> provider = crypto::make_fast_crypto();
  sim::SimNetwork net;
  Node::Config config;
  std::vector<std::unique_ptr<Node>> nodes;
};

TEST(GracefulLeave, PeersRecordDepartureQuickly) {
  LeaveNet ln;
  auto nodes = ln.build(10);
  Node* leaver = nodes[4];
  const PeerId gone = leaver->id();

  // Who currently holds the leaver as a peer?
  std::size_t holders_before = 0;
  for (auto* n : nodes) {
    if (n != leaver && n->state().peerset().contains(gone)) ++holders_before;
  }
  ASSERT_GT(holders_before, 0u);

  leaver->stop_gracefully();
  // Much faster than the timeout path: one notice + one ping round trip.
  ln.sim.run_until(ln.sim.now() + sim::seconds(30));

  std::size_t holders_after = 0;
  for (auto* n : nodes) {
    if (n != leaver && n->state().peerset().contains(gone)) ++holders_after;
  }
  EXPECT_LT(holders_after, holders_before);
  // At least one peer recorded a leave entry naming the leaver.
  std::size_t leave_entries = 0;
  for (auto* n : nodes) {
    if (n == leaver) continue;
    for (const auto& e : retained(n->state().history())) {
      if (e.kind == EntryKind::kLeave && e.out.size() == 1 &&
          e.out.front() == gone) {
        ++leave_entries;
      }
    }
  }
  EXPECT_GE(leave_entries, 1u);
}

TEST(GracefulLeave, ForgedLeaveNoticeCannotEvictLiveNode) {
  LeaveNet ln;
  auto nodes = ln.build(10);
  Node* victim = nodes[3];

  // A malicious node broadcasts a (validly signed, by itself) leave notice
  // claiming the victim departed. Receivers ping the victim, who answers,
  // so nobody records the leave.
  Node* liar = nodes[7];
  const auto [round, sig] =
      liar->state().make_leave_report(victim->id());
  wire::Writer w;
  encode_peer(w, victim->id());
  encode_peer(w, liar->id());
  w.u64(round);
  w.bytes(sig);
  const Bytes payload = std::move(w).take();
  for (auto* n : nodes) {
    if (n != liar && n != victim) {
      ln.net.send({liar->id().addr, n->id().addr,
                   static_cast<std::uint32_t>(MsgType::kLeaveNotice), payload});
    }
  }
  ln.sim.run_until(ln.sim.now() + sim::seconds(20));

  for (auto* n : nodes) {
    if (n == victim) continue;
    for (const auto& e : retained(n->state().history())) {
      if (e.kind == EntryKind::kLeave) {
        EXPECT_FALSE(e.out.front() == victim->id())
            << n->id().addr << " recorded a forged leave";
      }
    }
  }
}

TEST(GracefulLeave, BadSignatureNoticeIgnoredWithoutPing) {
  LeaveNet ln;
  auto nodes = ln.build(6);
  Node* victim = nodes[2];
  Node* liar = nodes[4];
  wire::Writer w;
  encode_peer(w, victim->id());
  encode_peer(w, liar->id());
  w.u64(0);
  w.bytes(Bytes(32, 0xee));  // garbage signature
  const Bytes payload = std::move(w).take();
  const auto failures_before = nodes[1]->stats().verification_failures;
  ln.net.send({liar->id().addr, nodes[1]->id().addr,
               static_cast<std::uint32_t>(MsgType::kLeaveNotice), payload});
  ln.sim.run_until(ln.sim.now() + sim::seconds(10));
  EXPECT_GT(nodes[1]->stats().verification_failures, failures_before);
}

TEST(GracefulLeave, LeaveShowsUpInMetrics) {
  LeaveNet ln;
  obs::MetricsRegistry fabric;
  ln.net.set_metrics(&fabric, [](std::uint32_t t) {
    return std::string(msg_type_name(static_cast<MsgType>(t)));
  });
  auto nodes = ln.build(10);
  Node* leaver = nodes[4];

  leaver->stop_gracefully();
  ln.sim.run_until(ln.sim.now() + sim::seconds(30));

  // The notice crossed the fabric (one per current peer), and receivers
  // ping-confirmed before recording (the leaver is detached, so the pings
  // go unanswered and the self-report is accepted).
  const auto count_of = [&](const char* name) {
    const auto id = fabric.find(name);
    return id ? fabric.counter_value(*id) : std::uint64_t{0};
  };
  EXPECT_GE(count_of("net.sent.leave_notice"), 1u);
  EXPECT_GE(count_of("net.recv.leave_notice"), 1u);
  EXPECT_GE(count_of("net.sent.ping"), 1u);
  EXPECT_GE(count_of("net.drop.ping"), 1u);  // leaver detached: pings dropped

  // Some peer recorded the departure; nobody *originated* a report
  // (leaves_reported counts the suspect-timeout path, not accepted
  // self-reports), and each node's stats() snapshot matches its registry.
  std::size_t recorded = 0;
  for (auto* n : nodes) {
    if (n == leaver) continue;
    const auto id = n->metrics().find("node.leaves_reported");
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(n->stats().leaves_reported, n->metrics().counter_value(*id));
    for (const auto& e : retained(n->state().history())) {
      if (e.kind == EntryKind::kLeave && e.out.size() == 1 &&
          e.out.front() == leaver->id()) {
        ++recorded;
      }
    }
  }
  EXPECT_GE(recorded, 1u);
}

}  // namespace
}  // namespace accountnet::core
