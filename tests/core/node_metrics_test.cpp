// Observability wiring: per-MsgType fabric counters, trace events, the
// registry behind Node::stats(), and update_config validation.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "accountnet/core/node.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::core {
namespace {

constexpr std::uint32_t kFirstMsgType = static_cast<std::uint32_t>(MsgType::kJoinRequest);
constexpr std::uint32_t kLastMsgType =
    static_cast<std::uint32_t>(MsgType::kSegmentData);

TEST(MsgTypeName, UniqueSnakeCaseForEveryType) {
  std::set<std::string> names;
  for (std::uint32_t t = kFirstMsgType; t <= kLastMsgType; ++t) {
    const std::string name = msg_type_name(static_cast<MsgType>(t));
    EXPECT_FALSE(name.empty()) << "type " << t;
    EXPECT_NE(name, "unknown") << "type " << t;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_')
          << "name '" << name << "' has invalid char '" << c << "'";
    }
  }
  EXPECT_EQ(names.size(), kLastMsgType - kFirstMsgType + 1);
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(0)), "unknown");
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(kLastMsgType + 1)), "unknown");
}

// Every wire type is counted: one send of each MsgType must show up under
// its own "net.sent.<name>" / "net.recv.<name>" / "net.bytes.<name>".
TEST(SimNetworkMetrics, CountsEveryMsgType) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, sim::fixed_latency(sim::milliseconds(1)), /*rng_seed=*/1);
  obs::MetricsRegistry metrics;
  net.set_metrics(&metrics, [](std::uint32_t t) {
    return std::string(msg_type_name(static_cast<MsgType>(t)));
  });
  net.attach("dst", [](const sim::NetMessage&) {});

  for (std::uint32_t t = kFirstMsgType; t <= kLastMsgType; ++t) {
    net.send({"src", "dst", t, Bytes{1, 2, 3}});
    net.send({"src", "ghost", t, Bytes{9}});  // unattached: a drop
  }
  sim.run_until(sim::seconds(1));

  for (std::uint32_t t = kFirstMsgType; t <= kLastMsgType; ++t) {
    const std::string name = msg_type_name(static_cast<MsgType>(t));
    const auto sent = metrics.find("net.sent." + name);
    const auto recv = metrics.find("net.recv." + name);
    const auto drop = metrics.find("net.drop." + name);
    const auto bytes = metrics.find("net.bytes." + name);
    ASSERT_TRUE(sent && recv && drop && bytes) << name;
    EXPECT_EQ(metrics.counter_value(*sent), 2u) << name;
    EXPECT_EQ(metrics.counter_value(*recv), 1u) << name;
    EXPECT_EQ(metrics.counter_value(*drop), 1u) << name;
    EXPECT_EQ(metrics.counter_value(*bytes), 4u) << name;
  }
}

TEST(SimNetworkMetrics, DefaultNamerFallsBackToTypeNumber) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, sim::fixed_latency(0), /*rng_seed=*/1);
  obs::MetricsRegistry metrics;
  net.set_metrics(&metrics);  // no namer
  net.send({"a", "b", 17, Bytes{}});
  sim.run_until(sim::seconds(1));
  const auto id = metrics.find("net.sent.type_17");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(metrics.counter_value(*id), 1u);
}

class NodeMetrics : public ::testing::Test {
 protected:
  NodeMetrics() : net(sim, sim::netem_latency(), /*rng_seed=*/77) {}

  std::unique_ptr<Node> make(const std::string& addr, std::uint64_t salt) {
    Node::Config config;
    config.protocol.max_peerset = 3;
    config.protocol.shuffle_length = 2;
    config.shuffle_period = sim::seconds(2);
    Bytes seed(32);
    Rng rng(salt);
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    return std::make_unique<Node>(net, addr, *provider, seed, config, rng.next_u64());
  }

  sim::Simulator sim;
  sim::SimNetwork net;
  std::unique_ptr<crypto::CryptoProvider> provider = crypto::make_fast_crypto();
};

// stats() is materialized from the registry: both views must agree, and the
// metric names behind it must exist.
TEST_F(NodeMetrics, StatsSnapshotMatchesRegistry) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(make("n" + std::to_string(i), 100 + i));
  nodes[0]->start_as_seed();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    nodes[i]->start_join(nodes[i - 1]->id().addr);
  }
  sim.run_until(sim::seconds(30));

  std::uint64_t total_completed = 0;
  for (const auto& n : nodes) {
    const Node::Stats s = n->stats();
    total_completed += s.shuffles_completed;
    const auto& m = n->metrics();
    const auto completed = m.find("node.shuffles_completed");
    const auto initiated = m.find("node.shuffles_initiated");
    const auto responded = m.find("node.shuffles_responded");
    ASSERT_TRUE(completed && initiated && responded);
    EXPECT_EQ(s.shuffles_completed, m.counter_value(*completed));
    EXPECT_EQ(s.shuffles_initiated, m.counter_value(*initiated));
    EXPECT_EQ(s.shuffles_responded, m.counter_value(*responded));
    EXPECT_EQ(s.verification_failures, 0u);
  }
  EXPECT_GT(total_completed, 0u) << "overlay never shuffled; fixture broken";
}

TEST_F(NodeMetrics, UpdateConfigValidatesBeforeApplying) {
  const auto node = make("n0", 1);

  Node::ConfigDelta ok;
  ok.witness_count = 7;
  ok.majority_opt = true;
  EXPECT_NO_THROW(node->update_config(ok));

  Node::ConfigDelta bad;
  bad.witness_count = 0;
  EXPECT_THROW(node->update_config(bad), EnsureError);

  // A rejected delta must not partially apply: pair a valid field with an
  // invalid one and confirm the whole call throws.
  Node::ConfigDelta mixed;
  mixed.majority_opt = false;
  mixed.witness_count = 0;
  EXPECT_THROW(node->update_config(mixed), EnsureError);
}

// Witness policy changes go through update_config like every other knob
// (the set_witness_policy shim is gone; see docs/API.md).
TEST_F(NodeMetrics, WitnessPolicyViaUpdateConfig) {
  const auto node = make("n0", 2);
  Node::ConfigDelta ok;
  ok.witness_count = 5;
  ok.majority_opt = true;
  EXPECT_NO_THROW(node->update_config(ok));

  Node::ConfigDelta bad;
  bad.witness_count = 0;
  bad.majority_opt = false;
  EXPECT_THROW(node->update_config(bad), EnsureError);
}

}  // namespace
}  // namespace accountnet::core
