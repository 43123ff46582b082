// End-to-end verifiable shuffling: honest exchanges, Algorithm 3 invariants,
// and the Sec. IV-B attack scenarios (forged samples, forged peersets,
// forged histories).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "accountnet/core/shuffle.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;
using testing::run_shuffle;

class ShuffleFixture : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_fast_crypto();

  // Builds a small network where every node knows every other (full mesh up
  // to f), seeded through join entries stamped by node 0.
  std::map<std::string, std::unique_ptr<NodeState>> build_mesh(std::size_t n,
                                                               NodeConfig config = {}) {
    std::map<std::string, std::unique_ptr<NodeState>> nodes;
    std::vector<PeerId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string addr = "node" + std::to_string(100 + i);
      auto node = make_node(addr, *provider_, config);
      ids.push_back(node->self());
      nodes[addr] = std::move(node);
    }
    auto& bootstrap = *nodes.begin()->second;
    for (auto& [addr, node] : nodes) {
      if (node.get() == &bootstrap) {
        bootstrap.init_as_seed();
        // The seed gets peers through a self-join-free path: emulate by a
        // join stamped by the second node (any valid stamp works for tests).
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
};

TEST_F(ShuffleFixture, HonestExchangeCommitsBothSides) {
  auto nodes = build_mesh(8);
  // Find an initiator whose VRF-dictated partner is running, then shuffle.
  for (auto& [addr, node] : nodes) {
    if (node->peerset().empty()) continue;
    const auto choice = choose_partner(*node);
    ASSERT_TRUE(choice.has_value());
    auto& partner = *nodes.at(choice->partner.addr);
    const Round r_a = node->round();
    const Round r_b = partner.round();
    const std::string err = run_shuffle(*node, partner, *provider_);
    ASSERT_EQ(err, "");
    EXPECT_EQ(node->round(), r_a + 1);
    EXPECT_EQ(partner.round(), r_b + 1);
    // Initiator became a peer of the responder (Sec. IV-A property).
    EXPECT_TRUE(partner.peerset().contains(node->self()));
    // Neither side holds itself.
    EXPECT_FALSE(node->peerset().contains(node->self()));
    EXPECT_FALSE(partner.peerset().contains(partner.self()));
    return;
  }
  FAIL() << "no initiator found";
}

TEST_F(ShuffleFixture, PeersetSizeNeverExceedsF) {
  NodeConfig config;
  config.max_peerset = 5;
  config.shuffle_length = 3;
  auto nodes = build_mesh(12, config);
  for (int round = 0; round < 50; ++round) {
    for (auto& [addr, node] : nodes) {
      if (node->peerset().empty()) continue;
      const auto choice = choose_partner(*node);
      if (!choice) continue;
      auto it = nodes.find(choice->partner.addr);
      if (it == nodes.end()) continue;
      const std::string err = run_shuffle(*node, *it->second, *provider_);
      ASSERT_EQ(err, "");
      EXPECT_LE(node->peerset().size(), config.max_peerset);
      EXPECT_LE(it->second->peerset().size(), config.max_peerset);
    }
  }
}

TEST_F(ShuffleFixture, HistoryEntriesMatchPaperExample) {
  // After a shuffle, ω_i must have out = A ∪ {v_j} (minus refills), in ⊆ B,
  // and ω_j must have out = B, in ⊆ A ∪ {v_i} (Example 1 structure).
  auto nodes = build_mesh(8);
  for (auto& [addr, node] : nodes) {
    if (node->peerset().empty()) continue;
    const auto choice = choose_partner(*node);
    ASSERT_TRUE(choice);
    auto& partner = *nodes.at(choice->partner.addr);
    const auto offer_preview = make_offer(*node, *choice, partner.round());

    ASSERT_EQ(run_shuffle(*node, partner, *provider_), "");

    const HistoryEntry wi = testing::retained(node->history()).back();
    const HistoryEntry wj = testing::retained(partner.history()).back();
    EXPECT_TRUE(wi.initiated);
    EXPECT_FALSE(wj.initiated);
    EXPECT_EQ(wi.counterpart, partner.self());
    EXPECT_EQ(wj.counterpart, node->self());
    // Cross invariants: what i sent out appears on j's in-side and vice
    // versa (up to capacity drops and refills).
    std::set<PeerId> wi_out(wi.out.begin(), wi.out.end());
    for (const auto& p : wj.in) {
      EXPECT_TRUE(wi_out.contains(p) || p == node->self()) << p.addr;
    }
    std::set<PeerId> wj_out(wj.out.begin(), wj.out.end());
    for (const auto& p : wi.in) {
      EXPECT_TRUE(wj_out.contains(p)) << p.addr;
    }
    // The initiator's outgoing set includes the partner itself.
    EXPECT_TRUE(wi_out.contains(partner.self()));
    // A-sample members left the initiator's peerset unless they came back —
    // via refill, or because the responder's B-sample happened to contain
    // them too (possible in small, dense networks).
    for (const auto& a : offer_preview.sample) {
      const bool refilled =
          std::find(wi.fill.begin(), wi.fill.end(), a) != wi.fill.end();
      const bool returned = std::find(wi.in.begin(), wi.in.end(), a) != wi.in.end();
      EXPECT_TRUE(refilled || returned || !node->peerset().contains(a)) << a.addr;
    }
    return;
  }
  FAIL() << "no initiator found";
}

TEST_F(ShuffleFixture, ReconstructionAlwaysMatchesAfterManyShuffles) {
  auto nodes = build_mesh(10);
  for (int i = 0; i < 100; ++i) {
    for (auto& [addr, node] : nodes) {
      const auto choice = choose_partner(*node);
      if (!choice) continue;
      auto it = nodes.find(choice->partner.addr);
      if (it == nodes.end()) continue;
      ASSERT_EQ(run_shuffle(*node, *it->second, *provider_), "");
    }
  }
  for (auto& [addr, node] : nodes) {
    const auto suffix = make_history_proof(*node).suffix;
    EXPECT_EQ(UpdateHistory::reconstruct(suffix), node->peerset()) << addr;
    EXPECT_TRUE(verify_history_suffix(suffix, node->self(), node->peerset(), *provider_))
        << addr;
  }
}

TEST_F(ShuffleFixture, OfferWireRoundTrip) {
  auto nodes = build_mesh(6);
  auto& a = *nodes.begin()->second;
  // Give the seed no peers; use the second node which joined.
  auto& b = *std::next(nodes.begin())->second;
  const auto choice = choose_partner(b);
  ASSERT_TRUE(choice);
  const auto offer = make_offer(b, *choice, 7);
  const auto decoded = ShuffleOffer::decode(offer.encode());
  EXPECT_EQ(decoded.initiator, offer.initiator);
  EXPECT_EQ(decoded.initiator_round, offer.initiator_round);
  EXPECT_EQ(decoded.initiator_round_sig, offer.initiator_round_sig);
  EXPECT_EQ(decoded.responder_round, offer.responder_round);
  EXPECT_EQ(decoded.sample, offer.sample);
  EXPECT_EQ(decoded.partner_proofs, offer.partner_proofs);
  EXPECT_EQ(decoded.sample_proofs, offer.sample_proofs);
  EXPECT_EQ(decoded.claimed_peerset, offer.claimed_peerset);
  EXPECT_EQ(decoded.history_suffix, offer.history_suffix);
  (void)a;
}

TEST_F(ShuffleFixture, ResponseWireRoundTrip) {
  auto nodes = build_mesh(6);
  auto& a = *std::next(nodes.begin())->second;
  const auto choice = choose_partner(a);
  ASSERT_TRUE(choice);
  auto& b = *nodes.at(choice->partner.addr);
  const auto offer = make_offer(a, *choice, b.round());
  ASSERT_TRUE(verify_offer(offer, b, b.round(), *provider_));
  const auto resp = make_response_and_commit(b, offer);
  const auto decoded = ShuffleResponse::decode(resp.encode());
  EXPECT_EQ(decoded.responder, resp.responder);
  EXPECT_EQ(decoded.responder_round, resp.responder_round);
  EXPECT_EQ(decoded.sample, resp.sample);
  EXPECT_EQ(decoded.claimed_peerset, resp.claimed_peerset);
  EXPECT_EQ(decoded.history_suffix, resp.history_suffix);
}

// --- Attack scenarios (Sec. IV-B) ------------------------------------------

class ShuffleAttacks : public ShuffleFixture {
 protected:
  void SetUp() override {
    nodes_ = build_mesh(8);
    // Pick a deterministic initiator/responder pair dictated by the VRF.
    for (auto& [addr, node] : nodes_) {
      const auto choice = choose_partner(*node);
      if (!choice) continue;
      if (nodes_.contains(choice->partner.addr)) {
        initiator_ = node.get();
        responder_ = nodes_.at(choice->partner.addr).get();
        choice_ = *choice;
        return;
      }
    }
    FAIL() << "no pair found";
  }

  std::map<std::string, std::unique_ptr<NodeState>> nodes_;
  NodeState* initiator_ = nullptr;
  NodeState* responder_ = nullptr;
  PartnerChoice choice_;
};

TEST_F(ShuffleAttacks, BiasedSampleDetected) {
  auto offer = make_offer(*initiator_, choice_, responder_->round());
  // Initiator swaps a sampled peer for a colluder it prefers to push.
  ASSERT_FALSE(offer.sample.empty());
  for (const auto& p : offer.claimed_peerset) {
    if (std::find(offer.sample.begin(), offer.sample.end(), p) == offer.sample.end() &&
        !(p == responder_->self())) {
      offer.sample[0] = p;
      break;
    }
  }
  const auto v = verify_offer(offer, *responder_, responder_->round(), *provider_);
  EXPECT_FALSE(v);
  EXPECT_NE(v.reason.find("sample"), std::string::npos);
}

TEST_F(ShuffleAttacks, TargetedPartnerDetected) {
  // Initiator claims a partner its VRF did not dictate: simulate by having a
  // different node "receive" the offer.
  const auto offer = make_offer(*initiator_, choice_, responder_->round());
  for (auto& [addr, node] : nodes_) {
    if (node.get() == initiator_ || node.get() == responder_) continue;
    if (!Peerset(offer.claimed_peerset).contains(node->self())) continue;
    const auto v = verify_offer(offer, *node, responder_->round(), *provider_);
    EXPECT_FALSE(v);
    return;
  }
  GTEST_SKIP() << "no third node in initiator peerset";
}

TEST_F(ShuffleAttacks, ForgedPeersetDetected) {
  auto offer = make_offer(*initiator_, choice_, responder_->round());
  // Insert a colluder into the claimed peerset without history support.
  auto intruder = make_node("colluder", *provider_);
  offer.claimed_peerset.push_back(intruder->self());
  std::sort(offer.claimed_peerset.begin(), offer.claimed_peerset.end());
  const auto v = verify_offer(offer, *responder_, responder_->round(), *provider_);
  EXPECT_FALSE(v);
  EXPECT_NE(v.reason.find("reconstructed"), std::string::npos);
}

TEST_F(ShuffleAttacks, ForgedHistoryEntryDetected) {
  auto offer = make_offer(*initiator_, choice_, responder_->round());
  // Rewrite a history entry to sneak a colluder in: the counterpart's
  // signature no longer covers the modified nonce payload... but the nonce is
  // what is signed, so modify `in` (reconstruction changes) instead.
  ASSERT_FALSE(offer.history_suffix.empty());
  auto intruder = make_node("colluder", *provider_);
  offer.history_suffix.back().in.push_back(intruder->self());
  const auto v = verify_offer(offer, *responder_, responder_->round(), *provider_);
  EXPECT_FALSE(v);
}

TEST_F(ShuffleAttacks, ForgedNonceSignatureDetected) {
  auto offer = make_offer(*initiator_, choice_, responder_->round());
  ASSERT_FALSE(offer.history_suffix.empty());
  // Tamper with the counterpart signature of a history entry.
  auto& entry = offer.history_suffix.back();
  if (entry.signature.empty()) GTEST_SKIP();
  entry.signature[0] ^= 1;
  const auto v = verify_offer(offer, *responder_, responder_->round(), *provider_);
  EXPECT_FALSE(v);
}

TEST_F(ShuffleAttacks, StaleRoundNonceRejected) {
  const auto offer = make_offer(*initiator_, choice_, responder_->round());
  const auto v = verify_offer(offer, *responder_, responder_->round() + 1, *provider_);
  EXPECT_FALSE(v);
  EXPECT_NE(v.reason.find("stale"), std::string::npos);
}

TEST_F(ShuffleAttacks, ForgedInitiatorRoundSigRejected) {
  auto offer = make_offer(*initiator_, choice_, responder_->round());
  offer.initiator_round_sig[0] ^= 1;
  EXPECT_FALSE(verify_offer(offer, *responder_, responder_->round(), *provider_));
}

TEST_F(ShuffleAttacks, MaliciousResponseDetected) {
  const auto offer = make_offer(*initiator_, choice_, responder_->round());
  ASSERT_TRUE(verify_offer(offer, *responder_, responder_->round(), *provider_));
  auto response = make_response_and_commit(*responder_, offer);
  // Responder swaps its B-sample for colluders post-hoc.
  ASSERT_FALSE(response.sample.empty());
  auto colluder = make_node("colluder", *provider_);
  response.sample[0] = colluder->self();
  const auto v = verify_response(response, *initiator_, offer, *provider_);
  EXPECT_FALSE(v);
}

TEST_F(ShuffleAttacks, ResponderRoundSwapRejected) {
  const auto offer = make_offer(*initiator_, choice_, responder_->round());
  ASSERT_TRUE(verify_offer(offer, *responder_, responder_->round(), *provider_));
  auto response = make_response_and_commit(*responder_, offer);
  response.responder_round += 1;
  EXPECT_FALSE(verify_response(response, *initiator_, offer, *provider_));
}

TEST_F(ShuffleAttacks, SelfShuffleRejected) {
  auto offer = make_offer(*initiator_, choice_, initiator_->round());
  const auto v = verify_offer(offer, *initiator_, initiator_->round(), *provider_);
  EXPECT_FALSE(v);
}

}  // namespace
}  // namespace accountnet::core
