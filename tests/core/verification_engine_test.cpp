// VerificationEngine: verdicts must be bit-identical to the pure verification
// functions, with the same checks reaching the provider, and no earlier call
// may change
// a later outcome — forged entries from previously-verified partners,
// equivocating histories at the same round and truncated replays after trim
// all fail (or pass) exactly as the provider path does, and a repeated check
// reaches the provider again. Real crypto throughout: a skipped check is a
// security bug.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "accountnet/core/adversary.hpp"
#include "accountnet/core/history.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/util/bytes.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;

/// Forwards to `inner` and counts every check that reaches it.
class CountingProvider final : public crypto::CryptoProvider {
 public:
  explicit CountingProvider(const crypto::CryptoProvider& inner) : inner_(inner) {}
  std::unique_ptr<crypto::Signer> make_signer(BytesView seed32) const override {
    return inner_.make_signer(seed32);
  }
  bool verify(const crypto::PublicKeyBytes& pk, BytesView msg,
              BytesView sig) const override {
    ++checks;
    return inner_.verify(pk, msg, sig);
  }
  std::optional<std::array<std::uint8_t, 64>> vrf_verify(
      const crypto::PublicKeyBytes& pk, BytesView alpha, BytesView proof) const override {
    ++checks;
    return inner_.vrf_verify(pk, alpha, proof);
  }
  const char* name() const override { return inner_.name(); }

  mutable std::size_t checks = 0;

 private:
  const crypto::CryptoProvider& inner_;
};

void expect_same_verdict(const VerifyResult& want, const VerifyResult& got,
                         const char* what) {
  EXPECT_EQ(want.ok, got.ok) << what;
  EXPECT_EQ(want.code, got.code) << what << ": " << want.reason << " vs " << got.reason;
}

using NodeMap = std::map<std::string, std::unique_ptr<NodeState>>;

/// Five nodes, ve100..ve104: ve100 is the seed, and each other node joins
/// through it with the other four as its peerset.
NodeMap joined_nodes(const crypto::CryptoProvider& provider, const NodeConfig& config) {
  NodeMap nodes;
  std::vector<PeerId> ids;
  for (std::size_t i = 0; i < 5; ++i) {
    const std::string addr = "ve" + std::to_string(100 + i);
    auto node = make_node(addr, provider, config);
    ids.push_back(node->self());
    nodes[addr] = std::move(node);
  }
  auto& bootstrap = *nodes.begin()->second;
  for (auto& [addr, node] : nodes) {
    if (node.get() == &bootstrap) {
      bootstrap.init_as_seed();
      continue;
    }
    std::vector<PeerId> others;
    for (const auto& id : ids) {
      if (!(id == node->self())) others.push_back(id);
    }
    const Bytes stamp = bootstrap.signer().sign(join_stamp_payload(addr));
    node->apply_join(bootstrap.self(), stamp, others);
  }
  return nodes;
}

NodeConfig small_config() {
  NodeConfig config;
  config.max_peerset = 5;
  config.shuffle_length = 3;
  return config;
}

class VerificationEngineFixture : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_real_crypto();
  NodeMap nodes_ = joined_nodes(*provider_, small_config());

  /// Commits one shuffle from `node` to its VRF-chosen partner; returns the
  /// offer that travelled (its history_suffix/claimed_peerset are the proof
  /// material the tests replay). Nullopt if the exchange failed.
  std::optional<ShuffleOffer> commit_one_shuffle(NodeState& node) {
    const auto choice = choose_partner(node);
    if (!choice) return std::nullopt;
    NodeState& partner = *nodes_.at(choice->partner.addr);
    const ShuffleOffer offer = make_offer(node, *choice, partner.round());
    if (!verify_offer(offer, partner, partner.round(), *provider_)) return std::nullopt;
    const auto response = make_response_and_commit(partner, offer);
    if (!verify_response(response, node, offer, *provider_)) return std::nullopt;
    apply_offer_outcome(node, offer, response);
    return offer;
  }

  /// An offer from `addr` whose suffix has at least `min_entries` entries.
  ShuffleOffer offer_with_history(const std::string& addr,
                                  std::size_t min_entries) {
    for (int round = 0; round < 64; ++round) {
      for (auto& [a, node] : nodes_) {
        const auto offer = commit_one_shuffle(*node);
        if (offer && a == addr && offer->history_suffix.size() >= min_entries) {
          return *offer;
        }
      }
    }
    ADD_FAILURE() << "never built a long-enough suffix for " << addr;
    return {};
  }

  VerifyResult provider_verdict(const ShuffleOffer& offer) {
    return verify_history_suffix(offer.history_suffix, offer.initiator,
                                 Peerset(offer.claimed_peerset), *provider_);
  }
};

// --- Verdict equality with the provider path --------------------------------

TEST_F(VerificationEngineFixture, VerdictsMatchUncachedAcrossConfigGrid) {
  const CountingProvider direct(*provider_);
  const CountingProvider through_engine(*provider_);
  VerificationEngine engine(through_engine);

  // Every exchange is checked both ways before committing, so later rounds
  // replay returning partners against the provider verdict — including
  // offers doctored the same way the harness adversary doctors them.
  for (int round = 0; round < 5; ++round) {
    for (auto& [addr, node] : nodes_) {
      const auto choice = choose_partner(*node);
      if (!choice) continue;
      NodeState& partner = *nodes_.at(choice->partner.addr);
      const Round rj = partner.round();
      const ShuffleOffer offer = make_offer(*node, *choice, rj);

      std::vector<ShuffleOffer> variants = {offer};
      if (!offer.history_suffix.empty() &&
          !offer.history_suffix.back().signature.empty()) {
        ShuffleOffer forged = offer;  // forge_history: flipped signature bit
        forged.history_suffix.back().signature.front() ^= 0x01;
        variants.push_back(std::move(forged));
      }
      if (offer.history_suffix.size() > 1) {
        ShuffleOffer truncated = offer;  // truncate_history: drop the oldest
        truncated.history_suffix.erase(truncated.history_suffix.begin());
        variants.push_back(std::move(truncated));
      }
      if (!offer.history_suffix.empty() &&
          offer.history_suffix.back().kind == EntryKind::kShuffle) {
        ShuffleOffer equiv = offer;  // equivocate: consistent but doctored
        equiv.history_suffix.back().in.push_back(fabricated_peer(addr));
        equiv.claimed_peerset =
            UpdateHistory::reconstruct(equiv.history_suffix).sorted();
        variants.push_back(std::move(equiv));
      }
      if (!offer.sample.empty()) {
        ShuffleOffer biased = offer;  // bias_sample: swapped-in member
        biased.sample.front() = fabricated_peer(addr + "-bias");
        variants.push_back(std::move(biased));
      }

      for (const ShuffleOffer& v : variants) {
        const VerifyResult want = verify_offer(v, partner, rj, direct);
        expect_same_verdict(want, verify_offer(v, partner, rj, engine), addr.c_str());
      }

      const auto response = make_response_and_commit(partner, offer);
      const VerifyResult want = verify_response(response, *node, offer, direct);
      ASSERT_TRUE(want.ok) << want.reason;
      expect_same_verdict(want, verify_response(response, *node, offer, engine),
                          "response");
      apply_offer_outcome(*node, offer, response);
    }
  }

  // One implementation: the engine hands the provider exactly the checks the
  // pure verifiers make, on the doctored variants too, and counts each.
  EXPECT_GT(engine.stats().history_full, 0u);
  EXPECT_EQ(through_engine.checks, direct.checks);
  EXPECT_EQ(engine.stats().sig_misses + engine.stats().vrf_misses, direct.checks);
}

// --- Returning partners and doctored histories -------------------------------

TEST_F(VerificationEngineFixture, ForgedExtensionFromWarmPartnerRejected) {
  const ShuffleOffer offer = offer_with_history("ve101", 2);
  VerificationEngine engine(*provider_);
  ASSERT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));

  // The partner returns with one more entry — whose signature is forged. The
  // new entry must be checked, not waved through on the earlier pass.
  std::vector<HistoryEntry> extended = offer.history_suffix;
  HistoryEntry forged = extended.back();
  forged.self_round = extended.back().self_round + 1;
  forged.in = {fabricated_peer("forged-in")};
  forged.out.clear();
  forged.fill.clear();
  forged.signature = Bytes(64, 0xab);
  extended.push_back(forged);
  const Peerset claimed = UpdateHistory::reconstruct(extended);

  const VerifyResult want =
      verify_history_suffix(extended, offer.initiator, claimed, *provider_);
  ASSERT_FALSE(want.ok);
  const VerifyResult got = engine.verify_history(extended, offer.initiator, claimed);
  expect_same_verdict(want, got, "forged extension");
  // The failed extension leaves nothing behind: the genuine suffix still
  // passes afterwards.
  EXPECT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));
}

TEST_F(VerificationEngineFixture, SameSuffixDifferentClaimNotAnExactHit) {
  const ShuffleOffer offer = offer_with_history("ve102", 1);
  VerificationEngine engine(*provider_);
  ASSERT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));

  std::vector<PeerId> inflated = offer.claimed_peerset;
  inflated.push_back(fabricated_peer("claim"));
  const VerifyResult want = verify_history_suffix(
      offer.history_suffix, offer.initiator, Peerset(inflated), *provider_);
  ASSERT_FALSE(want.ok);
  ASSERT_EQ(want.code, VerifyError::kReconstructionMismatch);
  expect_same_verdict(
      want, engine.verify_history(offer.history_suffix, offer.initiator,
                                  Peerset(inflated)),
      "inflated claim with a verified suffix");
}

TEST_F(VerificationEngineFixture, EquivocatingHistoriesAtSameRoundKeepVerdicts) {
  const ShuffleOffer offer = offer_with_history("ve103", 1);
  ASSERT_EQ(offer.history_suffix.back().kind, EntryKind::kShuffle);
  VerificationEngine engine(*provider_);

  // Fork B: same rounds, same signatures (entry signatures cover only the
  // nonce), doctored membership. Inline verification cannot tell A from B —
  // what the engine must guarantee is that neither verdict leaks to the other.
  std::vector<HistoryEntry> fork = offer.history_suffix;
  fork.back().in.push_back(fabricated_peer("equiv"));
  const Peerset fork_claim = UpdateHistory::reconstruct(fork);

  const VerifyResult want_a = provider_verdict(offer);
  const VerifyResult want_b =
      verify_history_suffix(fork, offer.initiator, fork_claim, *provider_);

  expect_same_verdict(want_a,
                      engine.verify_history(offer.history_suffix, offer.initiator,
                                            Peerset(offer.claimed_peerset)),
                      "fork A");
  expect_same_verdict(want_b,
                      engine.verify_history(fork, offer.initiator, fork_claim),
                      "fork B after A");
  expect_same_verdict(want_a,
                      engine.verify_history(offer.history_suffix, offer.initiator,
                                            Peerset(offer.claimed_peerset)),
                      "fork A after B");
}

TEST_F(VerificationEngineFixture, TruncatedReplayAfterTrimVerifiesRetainedSuffix) {
  const ShuffleOffer offer = offer_with_history("ve104", 3);
  VerificationEngine engine(*provider_);
  ASSERT_TRUE(engine.verify_history(offer.history_suffix, offer.initiator,
                                    Peerset(offer.claimed_peerset)));

  // After a trim the proof degrades to the retained suffix: shorter than the
  // one verified before, and it must still verify.
  std::vector<HistoryEntry> trimmed(offer.history_suffix.begin() + 1,
                                    offer.history_suffix.end());
  const Peerset trimmed_claim = UpdateHistory::reconstruct(trimmed);
  const VerifyResult want =
      verify_history_suffix(trimmed, offer.initiator, trimmed_claim, *provider_);
  expect_same_verdict(want,
                      engine.verify_history(trimmed, offer.initiator, trimmed_claim),
                      "trimmed replay");
  expect_same_verdict(want,
                      engine.verify_history(trimmed, offer.initiator, trimmed_claim),
                      "trimmed replay, repeated");
  EXPECT_EQ(engine.stats().history_full, 3u);
}

// --- Sample (VRF) path -------------------------------------------------------

TEST_F(VerificationEngineFixture, SampleVerdictsMatchWarmAndCold) {
  NodeState& drawer = *nodes_.at("ve103");
  const Peerset candidates = drawer.peerset();
  ASSERT_FALSE(candidates.empty());
  const Bytes nonce = bytes_of("ve-sample-nonce");
  const Draw draw =
      draw_sample(drawer.signer(), candidates, 2, "an.sample", nonce);

  VerificationEngine engine(*provider_);
  const auto want = verify_sample(*provider_, drawer.self().key, candidates, 2,
                                  "an.sample", nonce, draw.proofs, draw.sample);
  for (int pass = 0; pass < 2; ++pass) {  // first, then repeated
    const auto got = verify_sample(engine, drawer.self().key, candidates, 2,
                                   "an.sample", nonce, draw.proofs, draw.sample);
    expect_same_verdict(want, got, pass == 0 ? "sample" : "sample repeated");
  }
  EXPECT_EQ(engine.stats().vrf_misses, 2 * draw.proofs.size());

  // A doctored claim fails identically through the engine.
  std::vector<PeerId> lied = draw.sample;
  ASSERT_FALSE(lied.empty());
  lied.front() = fabricated_peer("sample");
  const auto want_bad = verify_sample(*provider_, drawer.self().key, candidates, 2,
                                      "an.sample", nonce, draw.proofs, lied);
  ASSERT_FALSE(want_bad.ok);
  expect_same_verdict(want_bad,
                      verify_sample(engine, drawer.self().key, candidates, 2,
                                    "an.sample", nonce, draw.proofs, lied),
                      "doctored sample claim");
}

// --- No state between calls -------------------------------------------------

// Every check of a repeated offer reaches the provider again: no verdict,
// signature or history suffix is remembered from the first pass.
TEST(VerificationEngine, RepeatedCheckReachesProviderEachTime) {
  const auto real = crypto::make_real_crypto();
  const CountingProvider counting(*real);
  NodeMap nodes = joined_nodes(*real, small_config());
  // A few committed rounds give every suffix shuffle entries to check.
  for (int round = 0; round < 3; ++round) {
    for (auto& [addr, node] : nodes) {
      if (node->peerset().empty()) continue;  // the seed, until someone adds it
      ASSERT_EQ(testing::run_shuffle_any(*node, nodes, *real), "") << addr;
    }
  }
  NodeState& node = *nodes.at("ve101");
  const auto choice = choose_partner(node);
  ASSERT_TRUE(choice.has_value());
  NodeState& partner = *nodes.at(choice->partner.addr);
  const ShuffleOffer offer = make_offer(node, *choice, partner.round());
  ASSERT_GE(offer.history_suffix.size(), 2u);

  VerificationEngine engine(counting);
  std::size_t cost[2] = {0, 0};
  for (std::size_t& c : cost) {
    const std::size_t before = counting.checks;
    ASSERT_TRUE(verify_offer(offer, partner, partner.round(), engine));
    c = counting.checks - before;
  }
  EXPECT_GT(cost[0], offer.history_suffix.size());
  EXPECT_EQ(cost[1], cost[0]);
  EXPECT_EQ(engine.stats().history_full, 2u);
}

}  // namespace
}  // namespace accountnet::core
