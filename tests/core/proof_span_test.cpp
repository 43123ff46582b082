// NodeState::proof_span() against the copying reference (test_util.hpp):
// seeded random overlays of joins, shuffles and leave reports at every
// retention and checkpoint setting, with nodes restarted from their journals
// midway. After every commit, each touched node's O(f) proof length and the
// proof make_history_proof() builds must equal what copying and replaying
// its retained history gives: the minimal suffix, or the anchored unsealed
// tail, or the whole window once trimming cut the suffix.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accountnet/core/checkpoint.hpp"
#include "accountnet/core/shuffle.hpp"
#include "accountnet/util/rng.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;
using testing::reference_proof;

/// Keeps every journaled entry; recovered() compacts a chosen prefix of the
/// sealed entries away, as a store does after sealing.
class MemJournal : public HistoryJournal {
 public:
  void on_entry(std::uint64_t index, const HistoryEntry& entry) override {
    ASSERT_EQ(index, entries_.size());
    entries_.push_back(entry);
  }
  void on_checkpoint(const Checkpoint& ck) override { checkpoint_ = ck; }
  void on_round(Round next_round) override { next_round_ = next_round; }

  RecoveredNode recovered(std::uint64_t first_index) const {
    RecoveredNode rec;
    for (std::uint64_t i = 0; i < first_index; ++i) {
      rec.base_chain = chain_step(rec.base_chain, entry_digest(entries_[i]));
    }
    rec.first_index = first_index;
    rec.entries.assign(entries_.begin() + static_cast<std::ptrdiff_t>(first_index),
                       entries_.end());
    rec.checkpoint = checkpoint_;
    rec.next_round = next_round_;
    return rec;
  }

  const std::optional<Checkpoint>& checkpoint() const { return checkpoint_; }

 private:
  std::vector<HistoryEntry> entries_;
  std::optional<Checkpoint> checkpoint_;
  Round next_round_ = 0;
};

struct Seen {
  std::size_t checks = 0, plain = 0, anchored = 0, degraded = 0, restores = 0;
};

void expect_reference_proof(const NodeState& node, Seen& seen, const std::string& where) {
  const HistoryProof want = reference_proof(node);
  const NodeState::ProofSpan span = node.proof_span();
  ASSERT_EQ(span.length, want.suffix.size()) << where;
  ASSERT_EQ(span.anchored, want.anchor.has_value()) << where;
  const HistoryProof got = make_history_proof(node);
  ASSERT_EQ(got.anchor, want.anchor) << where;
  ASSERT_EQ(got.suffix, want.suffix) << where;
  ++seen.checks;
  if (want.anchor) {
    ++seen.anchored;
  } else if (UpdateHistory::reconstruct(want.suffix) == node.peerset()) {
    ++seen.plain;
  } else {
    ++seen.degraded;
  }
}

void run_overlay(const crypto::CryptoProvider& provider, NodeConfig config,
                 std::uint64_t seed, Seen& seen) {
  constexpr std::size_t kNodes = 9;
  constexpr std::size_t kSteps = 500;
  Rng rng(seed);
  struct {
    std::vector<std::unique_ptr<NodeState>> nodes;
    std::vector<std::unique_ptr<MemJournal>> journals;
    std::map<std::string, std::size_t> index;
    std::vector<bool> joined;
  } o;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::string addr = "ps" + std::to_string(100 + i);
    o.nodes.push_back(make_node(addr, provider, config));
    o.journals.push_back(std::make_unique<MemJournal>());
    o.nodes.back()->set_journal(o.journals.back().get());
    o.index[addr] = i;
  }
  o.nodes[0]->init_as_seed();
  o.joined.assign(kNodes, false);
  o.joined[0] = true;
  const auto where = [&](std::size_t step, std::size_t i) {
    return "seed " + std::to_string(seed) + " step " + std::to_string(step) + " node " +
           o.nodes[i]->self().addr;
  };
  const auto join = [&](std::size_t i, std::size_t step) {
    // Bootstrap through any joined node; the initial peers are a random
    // draw of joined nodes (possibly more than f, or the joiner itself).
    std::vector<std::size_t> up;
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (o.joined[j]) up.push_back(j);
    }
    const NodeState& boot = *o.nodes[up[rng.uniform(up.size())]];
    std::vector<PeerId> initial;
    for (const std::size_t j : rng.sample_indices(kNodes, 1 + rng.uniform(kNodes))) {
      if (o.joined[j] || j == i) initial.push_back(o.nodes[j]->self());
    }
    const Bytes stamp = boot.signer().sign(join_stamp_payload(o.nodes[i]->self().addr));
    o.nodes[i]->apply_join(boot.self(), stamp, std::move(initial));
    o.joined[i] = true;
    expect_reference_proof(*o.nodes[i], seen, where(step, i));
  };
  // Half the nodes join up front, the rest during the run.
  for (std::size_t i = 1; i < kNodes / 2; ++i) join(i, 0);

  for (std::size_t step = 1; step <= kSteps && !::testing::Test::HasFatalFailure();
       ++step) {
    const std::size_t i = rng.uniform(kNodes);
    NodeState& node = *o.nodes[i];
    const double pick = rng.uniform01();
    if (!o.joined[i]) {
      if (pick < 0.1) join(i, step);
    } else if (pick < 0.72) {
      const auto choice = choose_partner(node);
      if (!choice) {
        node.skip_round();
        continue;
      }
      const std::size_t j = o.index.at(choice->partner.addr);
      if (!o.joined[j]) {
        node.skip_round();
        continue;
      }
      NodeState& partner = *o.nodes[j];
      const ShuffleOffer offer = make_offer(node, *choice, partner.round());
      const ShuffleResponse response = make_response_and_commit(partner, offer);
      expect_reference_proof(partner, seen, where(step, j));
      apply_offer_outcome(node, offer, response);
      expect_reference_proof(node, seen, where(step, i));
    } else if (pick < 0.87) {
      // A leave report for a member, or now and then for a stranger.
      const bool member = !node.peerset().empty() && rng.chance(0.8);
      const PeerId leaver = member ? node.peerset().at(rng.uniform(node.peerset().size()))
                                   : o.nodes[rng.uniform(kNodes)]->self();
      const NodeState& reporter = *o.nodes[rng.uniform(kNodes)];
      auto [round, sig] = reporter.make_leave_report(leaver);
      node.apply_leave_report(reporter.self(), round, std::move(sig), leaver);
      expect_reference_proof(node, seen, where(step, i));
    } else if (pick < 0.95) {
      node.skip_round();
    } else {
      // Restart from the journal, compacting part of the sealed prefix.
      const MemJournal& journal = *o.journals[i];
      const std::uint64_t sealed =
          journal.checkpoint() ? journal.checkpoint()->sealed_count : 0;
      const RecoveredNode rec = journal.recovered(rng.uniform(sealed + 1));
      auto fresh = make_node(node.self().addr, provider, config);
      fresh->restore(rec);
      fresh->set_journal(o.journals[i].get());
      o.nodes[i] = std::move(fresh);
      ++seen.restores;
      expect_reference_proof(*o.nodes[i], seen, where(step, i));
    }
  }
}

TEST(ProofSpan, MatchesCopyingReferenceOnRandomOverlays) {
  const auto provider = crypto::make_fast_crypto();
  Seen total;
  for (const std::size_t limit : {0u, 4u, 16u}) {
    for (const std::uint64_t interval : {0u, 4u}) {
      NodeConfig config;
      config.max_peerset = 4;
      config.shuffle_length = 2;
      config.history_limit = limit;
      config.checkpoint_interval = interval;
      Seen seen;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        run_overlay(*provider, config, seed * 1000 + limit * 10 + interval, seen);
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << "limit " << limit << " interval " << interval;
      }
      EXPECT_GT(seen.restores, 0u) << "limit " << limit << " interval " << interval;
      if (limit == 4) {
        // Trimming cut suffixes: anchored with checkpoints, degraded without.
        EXPECT_GT(interval > 0 ? seen.anchored : seen.degraded, 0u)
            << "interval " << interval;
      }
      total.checks += seen.checks;
      total.plain += seen.plain;
    }
  }
  EXPECT_GT(total.plain, total.checks / 2);
}

}  // namespace
}  // namespace accountnet::core
