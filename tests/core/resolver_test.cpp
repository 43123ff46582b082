// Network-level dispute resolution: the resolver queries witnesses over the
// simulated fabric and majority-votes, including silent/lying witnesses.
#include <gtest/gtest.h>

#include "accountnet/core/resolver.hpp"
#include "accountnet/sim/fault.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::core {
namespace {

struct ResolverNet {
  ResolverNet() : net(sim, sim::netem_latency(), 55) {
    config.protocol.max_peerset = 3;
    config.protocol.shuffle_length = 2;
    config.shuffle_period = sim::seconds(2);
    config.witness_count = 5;
    config.majority_opt = true;
    config.depth = 2;
    for (std::size_t i = 0; i < 40; ++i) {
      Bytes seed(32);
      Rng rng(6000 + i);
      for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
      nodes.push_back(std::make_unique<Node>(net, "r" + std::to_string(100 + i),
                                             *provider, seed, config, rng.next_u64()));
    }
    nodes[0]->start_as_seed();
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      sim.schedule(sim::milliseconds(static_cast<std::int64_t>(40 * i)),
                   [this, i] { nodes[i]->start_join(nodes[i - 1]->id().addr); });
    }
    sim.run_until(sim::seconds(60));
  }

  Node* find(const PeerId& id) {
    for (auto& n : nodes) {
      if (n->id() == id) return n.get();
    }
    return nullptr;
  }

  sim::Simulator sim;
  std::unique_ptr<crypto::CryptoProvider> provider = crypto::make_fast_crypto();
  sim::SimNetwork net;
  Node::Config config;
  std::vector<std::unique_ptr<Node>> nodes;
};

class ResolverFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    producer_ = rn_.nodes[1].get();
    consumer_ = rn_.nodes[25].get();
    bool ready = false;
    producer_->open_channel(consumer_->id().addr, [&](std::uint64_t id, bool ok) {
      channel_ = id;
      ready = ok;
    });
    rn_.sim.run_until(rn_.sim.now() + sim::seconds(10));
    ASSERT_TRUE(ready);
    witnesses_ = *producer_->channel_witnesses(channel_);
    ASSERT_GE(witnesses_.size(), 3u);
    payload_ = bytes_of("the-actual-data");
    producer_->send_data(channel_, payload_);
    rn_.sim.run_until(rn_.sim.now() + sim::seconds(5));
  }

  DisputeResolver::Outcome run_resolution(const Claim& p, const Claim& c) {
    Node& arbiter = *rn_.nodes[30];
    DisputeResolver resolver(arbiter, *rn_.provider);
    std::optional<DisputeResolver::Outcome> outcome;
    DisputeResolver::Request req;
    req.channel_id = channel_;
    req.sequence = 1;
    req.witnesses = witnesses_;
    req.producer_claim = p;
    req.consumer_claim = c;
    resolver.resolve(req, [&](DisputeResolver::Outcome o) { outcome = std::move(o); });
    rn_.sim.run_until(rn_.sim.now() + sim::seconds(10));
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(DisputeResolver::Outcome{});
  }

  ResolverNet rn_;
  Node* producer_ = nullptr;
  Node* consumer_ = nullptr;
  std::uint64_t channel_ = 0;
  std::vector<PeerId> witnesses_;
  Bytes payload_;
};

TEST_F(ResolverFixture, ExposesLyingConsumer) {
  const Claim honest{producer_->id(), digest_of(payload_)};
  const Claim lie{consumer_->id(), digest_of(bytes_of("nothing arrived"))};
  const auto outcome = run_resolution(honest, lie);
  EXPECT_EQ(outcome.resolution.verdict, Verdict::kConsumerDishonest);
  EXPECT_EQ(outcome.responded, witnesses_.size());
}

TEST_F(ResolverFixture, AgreesWhenBothHonest) {
  const Claim p{producer_->id(), digest_of(payload_)};
  const Claim c{consumer_->id(), digest_of(payload_)};
  const auto outcome = run_resolution(p, c);
  EXPECT_EQ(outcome.resolution.verdict, Verdict::kClaimsAgree);
}

TEST_F(ResolverFixture, SilentWitnessesDoNotBlockResolution) {
  // Kill a minority of witnesses: queries to them time out, the rest carry
  // the majority.
  const std::size_t kill = (witnesses_.size() - 1) / 2;
  std::size_t killed = 0;
  for (auto& n : rn_.nodes) {
    if (killed >= kill) break;
    for (const auto& w : witnesses_) {
      if (n->id().addr == w.addr) {
        n->stop();
        ++killed;
        break;
      }
    }
  }
  const Claim honest{producer_->id(), digest_of(payload_)};
  const Claim lie{consumer_->id(), digest_of(bytes_of("fake"))};
  const auto outcome = run_resolution(honest, lie);
  EXPECT_EQ(outcome.responded, witnesses_.size() - killed);
  EXPECT_EQ(outcome.resolution.verdict, Verdict::kConsumerDishonest);
}

TEST_F(ResolverFixture, MajorityLossMakesResolutionInconclusive) {
  // Kill a majority: no digest can reach |W|/2+1 of the group.
  const std::size_t kill = witnesses_.size() / 2 + 1;
  std::size_t killed = 0;
  for (auto& n : rn_.nodes) {
    if (killed >= kill) break;
    for (const auto& w : witnesses_) {
      if (n->id().addr == w.addr) {
        n->stop();
        ++killed;
        break;
      }
    }
  }
  const Claim p{producer_->id(), digest_of(payload_)};
  const Claim c{consumer_->id(), digest_of(bytes_of("x"))};
  const auto outcome = run_resolution(p, c);
  EXPECT_EQ(outcome.resolution.verdict, Verdict::kInconclusive);
}

TEST_F(ResolverFixture, EmptyWitnessListResolvesImmediately) {
  Node& arbiter = *rn_.nodes[30];
  DisputeResolver resolver(arbiter, *rn_.provider);
  std::optional<DisputeResolver::Outcome> outcome;
  DisputeResolver::Request req;
  req.channel_id = channel_;
  req.sequence = 1;
  req.producer_claim = Claim{producer_->id(), digest_of(payload_)};
  req.consumer_claim = Claim{consumer_->id(), digest_of(payload_)};
  resolver.resolve(req, [&](DisputeResolver::Outcome o) { outcome = std::move(o); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->resolution.verdict, Verdict::kInconclusive);
}

TEST_F(ResolverFixture, HistoryEntryLookupService) {
  // The Sec. IV-A old-entry lookup over the wire.
  Node& asker = *rn_.nodes[30];
  Node& target = *rn_.nodes[1];
  const Round round = target.state().history().last_round();
  std::optional<HistoryEntry> got;
  bool answered = false;
  asker.request_history_entry(target.id().addr, round, [&](std::optional<HistoryEntry> e) {
    got = std::move(e);
    answered = true;
  });
  rn_.sim.run_until(rn_.sim.now() + sim::seconds(5));
  ASSERT_TRUE(answered);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->self_round, round);

  // Unknown round -> explicit miss; dead peer -> timeout miss.
  answered = false;
  asker.request_history_entry(target.id().addr, 999999, [&](std::optional<HistoryEntry> e) {
    got = std::move(e);
    answered = true;
  });
  rn_.sim.run_until(rn_.sim.now() + sim::seconds(5));
  ASSERT_TRUE(answered);
  EXPECT_FALSE(got.has_value());
}

TEST_F(ResolverFixture, EquivocatingWitnessExcludedAndExposed) {
  // A witness that signs two conflicting testimonies for the same
  // (channel, seq) is majority-outvoted AND surfaced as an equivocator —
  // its conflicting pair is kTestimonyEquivocation accusation material.
  Node* w0 = rn_.find(witnesses_[0]);
  ASSERT_NE(w0, nullptr);
  const DataDigest truth = digest_of(payload_);
  const DataDigest lie = digest_of(bytes_of("second-story"));

  std::vector<Testimony> testimonies;
  for (const auto& w : witnesses_) {
    Node* wn = rn_.find(w);
    ASSERT_NE(wn, nullptr);
    const auto t = wn->evidence().lookup(channel_, 1);
    ASSERT_TRUE(t.has_value());
    testimonies.push_back(*t);
  }
  // w0 additionally signs the conflicting version.
  Testimony forked = testimonies[0];
  forked.digest = lie;
  forked.signature = w0->state().signer().sign(evidence_payload(channel_, 1, lie));
  testimonies.push_back(forked);

  const auto res = resolve_dispute(channel_, 1, Claim{producer_->id(), truth},
                                   Claim{consumer_->id(), lie}, testimonies,
                                   witnesses_.size(), *rn_.provider);
  // The honest majority (every witness but w0) still convicts the liar.
  EXPECT_EQ(res.verdict, Verdict::kConsumerDishonest);
  ASSERT_EQ(res.equivocators.size(), 1u);
  EXPECT_EQ(res.equivocators[0].addr, w0->id().addr);
  // Both of w0's testimonies are discounted, not just the second.
  EXPECT_EQ(res.valid_testimonies, witnesses_.size() - 1);
}

TEST_F(ResolverFixture, DeadlineBoundsStonewalledResolution) {
  // Blackhole every witness: queries neither answer nor error, so only the
  // resolver-side deadline can finish the resolution. It must fire, resolve
  // from zero testimonies, and leave nothing pinned in flight.
  sim::FaultPlan plan;
  plan.seed = 99;
  for (const auto& w : witnesses_) {
    sim::LinkFault f;
    f.to = w.addr;
    f.loss = 1.0;
    plan.links.push_back(f);
    sim::LinkFault back;
    back.from = w.addr;
    back.loss = 1.0;
    plan.links.push_back(back);
  }
  rn_.net.set_fault_plan(plan);

  Node& arbiter = *rn_.nodes[30];
  const sim::Duration deadline = sim::milliseconds(900);
  DisputeResolver resolver(arbiter, *rn_.provider, deadline);
  std::size_t fired = 0;
  std::optional<DisputeResolver::Outcome> outcome;
  DisputeResolver::Request req;
  req.channel_id = channel_;
  req.sequence = 1;
  req.witnesses = witnesses_;
  req.producer_claim = Claim{producer_->id(), digest_of(payload_)};
  req.consumer_claim = Claim{consumer_->id(), digest_of(bytes_of("fake"))};
  resolver.resolve(req, [&](DisputeResolver::Outcome o) {
    ++fired;
    outcome = std::move(o);
  });

  // Just past the deadline (well inside the 2 s per-query RPC timeout) the
  // outcome is already in and the in-flight table is empty.
  rn_.sim.run_until(rn_.sim.now() + deadline + sim::milliseconds(200));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->responded, 0u);
  EXPECT_EQ(outcome->resolution.verdict, Verdict::kInconclusive);
  EXPECT_EQ(resolver.in_flight(), 0u);

  // Late per-query timeouts and retries must not re-fire the callback.
  rn_.sim.run_until(rn_.sim.now() + sim::seconds(30));
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(resolver.in_flight(), 0u);
  rn_.net.clear_fault_plan();
}

}  // namespace
}  // namespace accountnet::core
