// Event-driven node integration: join, periodic verified shuffling, leave
// detection, witnessed channels, and the majority-delivery optimization —
// all over the simulated 20 ms fabric with real protocol verification.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "accountnet/core/node.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::core {
namespace {

class NodeNet {
 public:
  explicit NodeNet(bool majority_opt = false, std::size_t witness_count = 4,
                   std::size_t f = 5, std::size_t l = 3)
      : net_(sim_, sim::netem_latency(), 12345) {
    config_.protocol.max_peerset = f;
    config_.protocol.shuffle_length = l;
    config_.shuffle_period = sim::seconds(2);
    config_.witness_count = witness_count;
    config_.majority_opt = majority_opt;
    config_.depth = 2;
  }

  Node& spawn(const std::string& addr) {
    Bytes seed(32);
    Rng rng(std::hash<std::string>{}(addr));
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    nodes_.push_back(std::make_unique<Node>(net_, addr, *provider_, seed, config_,
                                            rng.next_u64()));
    return *nodes_.back();
  }

  /// Builds a running network of n nodes: node0 seeds, the rest join in a
  /// staggered fashion, then the network shuffles until `settle`.
  std::vector<Node*> build(std::size_t n, sim::Duration settle = sim::seconds(30)) {
    std::vector<Node*> out;
    for (std::size_t i = 0; i < n; ++i) {
      Node& node = spawn("n" + std::to_string(100 + i));
      out.push_back(&node);
      if (i == 0) {
        node.start_as_seed();
      } else {
        // Join through a random already-started node, staggered in time.
        const std::string bootstrap = out[i % std::max<std::size_t>(i, 1)]->id().addr == node.id().addr
                                          ? out[0]->id().addr
                                          : out[i - 1]->id().addr;
        sim_.schedule(sim::milliseconds(static_cast<std::int64_t>(50 * i)),
                      [&node, bootstrap] { node.start_join(bootstrap); });
      }
    }
    sim_.run_until(sim_.now() + settle);
    return out;
  }

  sim::Simulator sim_;
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_fast_crypto();
  sim::SimNetwork net_;
  Node::Config config_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// How often `node` mounted the attack counted as "adv.attack.<name>".
std::uint64_t attacks(const Node& node, const std::string& name) {
  const auto id = node.metrics().find("adv.attack." + name);
  return id ? node.metrics().counter_value(*id) : 0;
}

TEST(Node, JoinEstablishesPeerset) {
  NodeNet nn;
  auto nodes = nn.build(6, sim::seconds(10));
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_TRUE(nodes[i]->joined()) << i;
    EXPECT_FALSE(nodes[i]->state().peerset().empty()) << i;
    EXPECT_LE(nodes[i]->state().peerset().size(), 5u) << i;
  }
}

TEST(Node, ShufflingProgressesAndVerifies) {
  NodeNet nn;
  auto nodes = nn.build(10, sim::seconds(60));
  std::uint64_t completed = 0, verification_failures = 0;
  for (auto* n : nodes) {
    completed += n->stats().shuffles_completed;
    verification_failures += n->stats().verification_failures;
  }
  EXPECT_GT(completed, 20u);
  EXPECT_EQ(verification_failures, 0u);
  // Every node's history must reconstruct its live peerset.
  for (auto* n : nodes) {
    const auto suffix = make_history_proof(n->state()).suffix;
    EXPECT_EQ(UpdateHistory::reconstruct(suffix), n->state().peerset()) << n->id().addr;
  }
}

TEST(Node, SeedGetsPeersThroughResponding) {
  NodeNet nn;
  auto nodes = nn.build(8, sim::seconds(60));
  EXPECT_FALSE(nodes[0]->state().peerset().empty());
}

TEST(Node, RefusingNodeDoesNotBlockOthers) {
  NodeNet nn;
  auto nodes = nn.build(8, sim::seconds(5));
  nodes[3]->adversary().refuse_shuffles = true;
  const Node::Stats armed_at = nodes[3]->stats();
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(60));
  std::uint64_t completed = 0;
  for (auto* n : nodes) completed += n->stats().shuffles_completed;
  EXPECT_GT(completed, 10u);
  // The refusing node neither initiated nor answered a shuffle once armed.
  EXPECT_EQ(nodes[3]->stats().shuffles_initiated, armed_at.shuffles_initiated);
  EXPECT_EQ(nodes[3]->stats().shuffles_responded, armed_at.shuffles_responded);
}

TEST(Node, UngracefulLeaveIsDetectedAndReported) {
  NodeNet nn;
  auto nodes = nn.build(8, sim::seconds(40));
  // Kill one node; give the network time to bump into it.
  nodes[2]->stop();
  const PeerId dead = nodes[2]->id();
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(120));
  std::uint64_t reports = 0;
  std::size_t holders = 0;
  for (auto* n : nodes) {
    if (n == nodes[2]) continue;
    reports += n->stats().leaves_reported;
    if (n->state().peerset().contains(dead)) ++holders;
  }
  EXPECT_GE(reports, 1u);
  // Most live nodes should have purged the dead peer.
  EXPECT_LE(holders, 2u);
}

TEST(Node, ChannelEstablishmentSelectsWitnesses) {
  // Neighborhoods must stay small relative to |V| or the common-node
  // exclusion wipes out the candidate pool (the paper's Example 3 caveat) —
  // hence f=3 and 40 nodes here.
  NodeNet nn(false, 4, /*f=*/3, /*l=*/2);
  auto nodes = nn.build(40, sim::seconds(60));
  Node* producer = nodes[1];
  Node* consumer = nodes[25];
  std::optional<bool> ok;
  std::uint64_t cid = 0;
  producer->open_channel(consumer->id().addr, [&](std::uint64_t id, bool success) {
    cid = id;
    ok = success;
  });
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(10));
  ASSERT_TRUE(ok.has_value());
  ASSERT_TRUE(*ok);
  const auto* witnesses = producer->channel_witnesses(cid);
  ASSERT_NE(witnesses, nullptr);
  EXPECT_GT(witnesses->size(), 0u);
  EXPECT_LE(witnesses->size(), 4u);
  // Witness group excludes both endpoints.
  for (const auto& w : *witnesses) {
    EXPECT_NE(w.addr, producer->id().addr);
    EXPECT_NE(w.addr, consumer->id().addr);
  }
}

TEST(Node, DataFlowsThroughWitnessesWithEvidence) {
  NodeNet nn(false, 4, /*f=*/3, /*l=*/2);
  auto nodes = nn.build(40, sim::seconds(60));
  Node* producer = nodes[1];
  Node* consumer = nodes[25];

  std::uint64_t cid = 0;
  bool ready = false;
  producer->open_channel(consumer->id().addr, [&](std::uint64_t id, bool ok) {
    cid = id;
    ready = ok;
  });
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(10));
  ASSERT_TRUE(ready);

  Bytes delivered;
  std::uint64_t delivered_seq = 0;
  consumer->set_delivery_callback(
      [&](std::uint64_t, std::uint64_t seq, const Bytes& payload, const PeerId& from) {
        delivered = payload;
        delivered_seq = seq;
        EXPECT_EQ(from.addr, producer->id().addr);
      });

  const Bytes payload = bytes_of("scene_image_0001");
  producer->send_data(cid, payload);
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(5));

  EXPECT_EQ(delivered, payload);
  EXPECT_EQ(delivered_seq, 1u);

  // Every witness holds a signed testimony matching the payload digest.
  const auto* witnesses = producer->channel_witnesses(cid);
  ASSERT_NE(witnesses, nullptr);
  std::size_t testified = 0;
  for (auto& up : nn.nodes_) {
    for (const auto& w : *witnesses) {
      if (up->id().addr == w.addr) {
        const auto t = up->evidence().lookup(cid, 1);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->digest, digest_of(payload));
        EXPECT_TRUE(verify_testimony(*t, *nn.provider_));
        ++testified;
      }
    }
  }
  EXPECT_EQ(testified, witnesses->size());
}

TEST(Node, MajorityOptDeliversDespiteMinorityCorruption) {
  NodeNet nn(/*majority_opt=*/true, /*witness_count=*/5, /*f=*/3, /*l=*/2);
  auto nodes = nn.build(40, sim::seconds(60));
  Node* producer = nodes[1];
  Node* consumer = nodes[25];

  std::uint64_t cid = 0;
  bool ready = false;
  producer->open_channel(consumer->id().addr, [&](std::uint64_t id, bool ok) {
    cid = id;
    ready = ok;
  });
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(10));
  ASSERT_TRUE(ready);
  const auto witnesses = *producer->channel_witnesses(cid);
  ASSERT_GE(witnesses.size(), 3u);

  // Corrupt a strict minority of witnesses.
  const std::size_t bad = (witnesses.size() - 1) / 2;
  std::vector<Node*> corrupted;
  for (auto& up : nn.nodes_) {
    if (corrupted.size() >= bad) break;
    for (const auto& w : witnesses) {
      if (up->id().addr == w.addr) {
        up->adversary().tamper_relays = true;
        corrupted.push_back(up.get());
        break;
      }
    }
  }

  Bytes delivered;
  consumer->set_delivery_callback(
      [&](std::uint64_t, std::uint64_t, const Bytes& payload, const PeerId&) {
        delivered = payload;
      });
  const Bytes payload = bytes_of("detect-objects-frame-7");
  producer->send_data(cid, payload);
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(5));
  EXPECT_EQ(delivered, payload);  // majority of honest copies wins
  for (const Node* w : corrupted) {
    EXPECT_GT(attacks(*w, "tamper_relay"), 0u) << w->id().addr;
  }
}

TEST(Node, DroppedRelaysStallWithoutOptButMajorityOptDelivers) {
  NodeNet without_opt(/*majority_opt=*/false, /*witness_count=*/5, /*f=*/3, /*l=*/2);
  NodeNet with_opt(/*majority_opt=*/true, /*witness_count=*/5, /*f=*/3, /*l=*/2);
  for (NodeNet* nn : {&without_opt, &with_opt}) {
    auto nodes = nn->build(40, sim::seconds(60));
    Node* producer = nodes[1];
    Node* consumer = nodes[25];
    std::uint64_t cid = 0;
    bool ready = false;
    producer->open_channel(consumer->id().addr, [&](std::uint64_t id, bool ok) {
      cid = id;
      ready = ok;
    });
    nn->sim_.run_until(nn->sim_.now() + sim::seconds(10));
    ASSERT_TRUE(ready);
    const auto witnesses = *producer->channel_witnesses(cid);
    if (witnesses.size() < 3) GTEST_SKIP() << "tiny witness group";

    // One witness silently drops everything.
    Node* dropper = nullptr;
    for (auto& up : nn->nodes_) {
      if (up->id().addr == witnesses[0].addr) dropper = up.get();
    }
    ASSERT_NE(dropper, nullptr);
    dropper->adversary().drop_relays = true;
    bool delivered = false;
    consumer->set_delivery_callback(
        [&](std::uint64_t, std::uint64_t, const Bytes&, const PeerId&) {
          delivered = true;
        });
    producer->send_data(cid, bytes_of("payload"));
    nn->sim_.run_until(nn->sim_.now() + sim::seconds(5));
    EXPECT_GT(attacks(*dropper, "drop_relay"), 0u);
    if (nn == &with_opt) {
      EXPECT_TRUE(delivered) << "majority opt should mask a dropped relay";
    } else {
      EXPECT_FALSE(delivered) << "all-witness delivery stalls on a drop";
    }
  }
}

TEST(Node, LyingWitnessTestimonyIsOutvotedAtResolution) {
  NodeNet nn(/*majority_opt=*/true, /*witness_count=*/5, /*f=*/3, /*l=*/2);
  auto nodes = nn.build(40, sim::seconds(60));
  Node* producer = nodes[1];
  Node* consumer = nodes[25];
  std::uint64_t cid = 0;
  bool ready = false;
  producer->open_channel(consumer->id().addr, [&](std::uint64_t id, bool ok) {
    cid = id;
    ready = ok;
  });
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(10));
  ASSERT_TRUE(ready);
  const auto witnesses = *producer->channel_witnesses(cid);
  if (witnesses.size() < 3) GTEST_SKIP() << "tiny witness group";

  // A minority of witnesses fabricates testimony in favour of the consumer.
  const std::size_t bad = (witnesses.size() - 1) / 2;
  std::vector<Node*> flipped;
  for (auto& up : nn.nodes_) {
    if (flipped.size() >= bad) break;
    for (const auto& w : witnesses) {
      if (up->id().addr == w.addr) {
        up->adversary().lie_in_testimony = true;
        flipped.push_back(up.get());
        break;
      }
    }
  }

  const Bytes truth = bytes_of("true-inference-result");
  producer->send_data(cid, truth);
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(5));
  for (const Node* w : flipped) {
    EXPECT_GT(attacks(*w, "lie_testimony"), 0u) << w->id().addr;
  }

  // Resolver collects testimonies from the full group.
  std::vector<Testimony> testimonies;
  for (auto& up : nn.nodes_) {
    for (const auto& w : witnesses) {
      if (up->id().addr == w.addr) {
        if (const auto t = up->evidence().lookup(cid, 1)) testimonies.push_back(*t);
      }
    }
  }
  const Claim producer_claim{producer->id(), digest_of(truth)};
  const Claim consumer_lie{consumer->id(), digest_of(bytes_of("fabricated-evidence"))};
  const auto res = resolve_dispute(cid, 1, producer_claim, consumer_lie, testimonies,
                                   witnesses.size(), *nn.provider_);
  EXPECT_EQ(res.verdict, Verdict::kConsumerDishonest);
}

TEST(Node, RealCryptoSmallNetworkEndToEnd) {
  // The full stack under Ed25519 + ECVRF, small scale.
  sim::Simulator sim;
  auto provider = crypto::make_real_crypto();
  sim::SimNetwork net(sim, sim::netem_latency(), 777);
  Node::Config config;
  config.protocol.max_peerset = 4;
  config.protocol.shuffle_length = 2;
  config.shuffle_period = sim::seconds(2);
  config.witness_count = 2;
  config.depth = 2;

  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 6; ++i) {
    Bytes seed(32, static_cast<std::uint8_t>(i + 1));
    nodes.push_back(std::make_unique<Node>(net, "r" + std::to_string(i), *provider, seed,
                                           config, 1000 + static_cast<std::uint64_t>(i)));
  }
  nodes[0]->start_as_seed();
  for (int i = 1; i < 6; ++i) {
    sim.schedule(sim::milliseconds(100 * i),
                 [&, i] { nodes[static_cast<std::size_t>(i)]->start_join(nodes[static_cast<std::size_t>(i - 1)]->id().addr); });
  }
  sim.run_until(sim::seconds(40));

  std::uint64_t completed = 0, failures = 0;
  for (auto& n : nodes) {
    completed += n->stats().shuffles_completed;
    failures += n->stats().verification_failures;
  }
  EXPECT_GT(completed, 5u);
  EXPECT_EQ(failures, 0u);
}


TEST(Node, DestructionDetachesFromFabric) {
  // A node destroyed without an explicit stop() must detach itself: traffic
  // addressed to it afterwards is dropped by the fabric, never dispatched
  // into freed state, and its pending timers must not fire.
  NodeNet nn;
  auto nodes = nn.build(4, sim::seconds(10));
  const std::string gone = nodes[3]->id().addr;
  ASSERT_TRUE(nn.net_.is_attached(gone));
  nn.nodes_.pop_back();  // destructor runs; no stop() was called
  EXPECT_FALSE(nn.net_.is_attached(gone));

  // The survivors keep shuffling toward the dead address; every such send
  // must resolve as a drop, not a use-after-free.
  nn.net_.send({nodes[0]->id().addr, gone, 0, bytes_of("stale")});
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(20));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(nodes[i]->joined()) << i;
  }
}

TEST(Node, EntryQueryRepliesWithTheStoredEntryBytes) {
  // The Sec. IV-A old-entry lookup, byte for byte: a retained round is
  // answered with request ‖ 1 ‖ encode_entry(entry); a trimmed round and a
  // round the node never had are answered with request ‖ 0.
  NodeNet nn;
  nn.config_.protocol.history_limit = 4;
  auto nodes = nn.build(6, sim::seconds(40));
  Node& target = *nodes[2];
  target.adversary().refuse_shuffles = true;  // freeze its history
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(10));
  const UpdateHistory& h = target.state().history();
  const std::uint64_t appended = h.total_appended();
  ASSERT_GT(h.first_index(), 0u) << "the round-0 join entry must have been trimmed";
  ASSERT_EQ(h.size(), 4u);

  std::map<std::uint64_t, Bytes> replies;
  nn.net_.attach("probe", [&](const sim::NetMessage& m) {
    if (m.type != static_cast<std::uint32_t>(MsgType::kEntryReply)) return;
    replies[wire::Reader(m.payload).u64()] = m.payload;
  });
  const auto query = [&](std::uint64_t request, Round round) {
    wire::Writer w;
    w.u64(request);
    w.u64(round);
    const auto type = static_cast<std::uint32_t>(MsgType::kEntryQuery);
    nn.net_.send({"probe", target.id().addr, type, std::move(w).take(), {}});
  };
  const auto hit = [](std::uint64_t request, const HistoryEntry& e) {
    wire::Writer w;
    w.u64(request);
    w.u8(1);
    encode_entry(w, e);
    return std::move(w).take();
  };
  const auto miss = [](std::uint64_t request) {
    wire::Writer w;
    w.u64(request);
    w.u8(0);
    return std::move(w).take();
  };
  const std::vector<HistoryEntry> window = h.entries_from(h.first_index(), h.size());
  query(1, window.front().self_round);
  query(2, window[2].self_round);
  query(3, window.back().self_round);
  query(4, 0);                            // the join entry, trimmed away
  query(5, target.state().round() + 100);  // never made
  nn.sim_.run_until(nn.sim_.now() + sim::seconds(2));

  ASSERT_EQ(h.total_appended(), appended);
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[1], hit(1, window.front()));
  EXPECT_EQ(replies[2], hit(2, window[2]));
  EXPECT_EQ(replies[3], hit(3, window.back()));
  EXPECT_EQ(replies[4], miss(4));
  EXPECT_EQ(replies[5], miss(5));
}

}  // namespace
}  // namespace accountnet::core
