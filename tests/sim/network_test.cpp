#include "accountnet/sim/network.hpp"

#include <gtest/gtest.h>

namespace accountnet::sim {
namespace {

TEST(SimNetwork, DeliversAfterLatency) {
  Simulator sim;
  SimNetwork net(sim, fixed_latency(milliseconds(20)), 1);
  std::vector<TimePoint> arrivals;
  net.attach("b", [&](const NetMessage& m) {
    EXPECT_EQ(m.from, "a");
    EXPECT_EQ(m.payload, (Bytes{1, 2}));
    arrivals.push_back(sim.now());
  });
  net.send({"a", "b", 0, Bytes{1, 2}});
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], milliseconds(20));
}

TEST(SimNetwork, DropsToUnknownEndpoint) {
  Simulator sim;
  SimNetwork net(sim, fixed_latency(0), 1);
  net.send({"a", "ghost", 0, Bytes{}});
  sim.run();
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST(SimNetwork, DetachDropsInFlight) {
  Simulator sim;
  SimNetwork net(sim, fixed_latency(milliseconds(10)), 1);
  int delivered = 0;
  net.attach("b", [&](const NetMessage&) { ++delivered; });
  net.send({"a", "b", 0, Bytes{}});
  net.detach("b");  // leaves before the message lands
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST(SimNetwork, AttachedQuery) {
  Simulator sim;
  SimNetwork net(sim, fixed_latency(0), 1);
  EXPECT_FALSE(net.is_attached("x"));
  net.attach("x", [](const NetMessage&) {});
  EXPECT_TRUE(net.is_attached("x"));
  net.detach("x");
  EXPECT_FALSE(net.is_attached("x"));
}

TEST(SimNetwork, CountsBytes) {
  Simulator sim;
  SimNetwork net(sim, fixed_latency(0), 1);
  net.attach("b", [](const NetMessage&) {});
  net.send({"a", "b", 0, Bytes(100, 0)});
  net.send({"a", "b", 0, Bytes(23, 0)});
  sim.run();
  EXPECT_EQ(net.stats().bytes_sent, 123u);
}

TEST(SimNetwork, UniformLatencyWithinBounds) {
  Simulator sim;
  SimNetwork net(sim, uniform_latency(milliseconds(5), milliseconds(9)), 7);
  for (int i = 0; i < 1000; ++i) {
    const auto d = net.sample_delay();
    EXPECT_GE(d, milliseconds(5));
    EXPECT_LE(d, milliseconds(9));
  }
}

TEST(SimNetwork, NormalLatencyClampsAtMin) {
  Simulator sim;
  SimNetwork net(sim, normal_latency(milliseconds(1), milliseconds(50), milliseconds(1)), 7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(net.sample_delay(), milliseconds(1));
  }
}

TEST(SimNetwork, NetemMatchesPaperSetup) {
  // One-way ~20 ms => round trip "at least about 40 ms" (Sec. VI).
  Simulator sim;
  SimNetwork net(sim, netem_latency(), 42);
  double sum = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(net.sample_delay());
  const double mean_ms = sum / n / 1000.0;
  EXPECT_NEAR(mean_ms, 20.0, 0.5);
}

TEST(SimNetwork, PingPongConversation) {
  Simulator sim;
  SimNetwork net(sim, fixed_latency(milliseconds(20)), 1);
  int rounds = 0;
  net.attach("a", [&](const NetMessage& m) {
    if (rounds < 3) {
      ++rounds;
      net.send({"a", m.from, 0, Bytes{}});
    }
  });
  net.attach("b", [&](const NetMessage&) { net.send({"b", "a", 0, Bytes{}}); });
  net.send({"b", "a", 0, Bytes{}});
  sim.run();
  EXPECT_EQ(rounds, 3);
  // 1 initial + 3 a->b + 3 b->a = 7 messages, each 20 ms.
  EXPECT_EQ(net.stats().messages_delivered, 7u);
  EXPECT_EQ(sim.now(), milliseconds(7 * 20));
}

TEST(SimNetwork, HopSpansJoinTheSenderTrace) {
  Simulator sim;
  SimNetwork net(sim, fixed_latency(milliseconds(5)), 1);
  obs::Tracer tracer(3);
  net.set_tracer(&tracer);
  net.attach("b", [](const NetMessage&) {});
  const std::uint64_t op = tracer.begin_span("op", "a", sim.now());
  net.send({"a", "b", 7, Bytes{1, 2, 3}, tracer.context(op)});
  net.send({"a", "b", 7, Bytes{}});  // untraced message: no hop span
  sim.run();
  tracer.end_span(op, sim.now());

  ASSERT_EQ(tracer.size(), 2u);  // the op span + exactly one hop span
  const obs::Span& hop = tracer.spans()[1];
  EXPECT_EQ(hop.name, "net.type_7");
  EXPECT_EQ(hop.node, "net");
  EXPECT_EQ(hop.trace_id, op);
  EXPECT_EQ(hop.parent_span, op);
  EXPECT_FALSE(hop.open());
  EXPECT_EQ(hop.end_us - hop.start_us, milliseconds(5));
  ASSERT_NE(hop.find_attr("bytes"), nullptr);
  EXPECT_EQ(*hop.find_attr("bytes"), "3");
  EXPECT_EQ(hop.find_attr("outcome"), nullptr);  // delivered cleanly
}

TEST(SimNetwork, UndeliverableHopSpanGetsOutcome) {
  Simulator sim;
  SimNetwork net(sim, fixed_latency(0), 1);
  obs::Tracer tracer(3);
  net.set_tracer(&tracer);
  const std::uint64_t op = tracer.begin_span("op", "a", sim.now());
  net.send({"a", "ghost", 0, Bytes{}, tracer.context(op)});
  sim.run();
  ASSERT_EQ(tracer.size(), 2u);
  const obs::Span& hop = tracer.spans()[1];
  ASSERT_NE(hop.find_attr("outcome"), nullptr);
  EXPECT_EQ(*hop.find_attr("outcome"), "unreachable");
}

TEST(SimNetwork, DeterministicAcrossRunsWithSameSeed) {
  auto run_once = [] {
    Simulator sim;
    SimNetwork net(sim, uniform_latency(0, milliseconds(50)), 99);
    std::vector<Duration> delays;
    for (int i = 0; i < 20; ++i) delays.push_back(net.sample_delay());
    return delays;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace accountnet::sim
