// Signed history checkpoints (core/checkpoint.hpp): seal cadence, wire
// hostility (round-trip / truncation / bit-flip / oversized-length all fail
// closed, mirroring accusation_test), forged-signature rejection over BOTH
// crypto backends, and the retention regression the anchor exists for: a
// trimmed history that degraded proofs pre-checkpoint now verifies through
// its anchor with a verdict bit-identical to an untrimmed run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "accountnet/core/checkpoint.hpp"
#include "accountnet/core/shuffle.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/wire/codec.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;

// A deterministic little overlay: every node joins off the first, then
// `rounds` iterations of unverified commits (verification is what's under
// test, so it must not gate the evolution — all three retention configs in
// the regression test evolve bit-identically).
std::map<std::string, std::unique_ptr<NodeState>> make_overlay(
    const crypto::CryptoProvider& provider, NodeConfig config, std::size_t n,
    std::size_t rounds) {
  std::map<std::string, std::unique_ptr<NodeState>> nodes;
  std::vector<PeerId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string addr = "ckpt" + std::to_string(100 + i);
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
  for (std::size_t r = 0; r < rounds; ++r) {
    for (auto& [addr, node] : nodes) {
      if (node->peerset().empty()) continue;
      const auto choice = choose_partner(*node);
      if (!choice || !nodes.count(choice->partner.addr)) {
        node->skip_round();
        continue;
      }
      auto& partner = *nodes.at(choice->partner.addr);
      const auto offer = make_offer(*node, *choice, partner.round());
      const auto response = make_response_and_commit(partner, offer);
      apply_offer_outcome(*node, offer, response);
    }
  }
  return nodes;
}

TEST(CheckpointSeal, CadenceAndSelfVerification) {
  const auto provider = crypto::make_fast_crypto();
  NodeConfig config;
  config.max_peerset = 5;
  config.shuffle_length = 3;
  config.checkpoint_interval = 3;
  config.history_limit = 4;
  const auto nodes = make_overlay(*provider, config, 6, 12);
  std::size_t sealed_nodes = 0;
  for (const auto& [addr, node] : nodes) {
    const auto& ck = node->checkpoint();
    if (!ck) continue;
    ++sealed_nodes;
    EXPECT_GE(ck->epoch, 1u);
    EXPECT_GE(ck->sealed_count, config.checkpoint_interval);
    EXPECT_LE(ck->sealed_count, node->history().total_appended());
    // The seal commits the rolling chain over its prefix, bit-for-bit.
    EXPECT_EQ(ck->chain, node->history().chain_at(ck->sealed_count));
    EXPECT_TRUE(verify_checkpoint(*ck, node->self(), *provider))
        << "self-sealed checkpoint must verify";
    // The unsealed tail is always retained (trim floor = max(limit,
    // unsealed)), so anchored proofs never lack their suffix.
    EXPECT_LE(node->history().first_index(), ck->sealed_count);
    EXPECT_GE(node->history().first_index() + node->history().size(),
              node->history().total_appended());
  }
  EXPECT_GT(sealed_nodes, 0u) << "overlay never sealed; fixture broken";
}

class CheckpointWire : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_fast_crypto();
  Checkpoint ck_;

  void SetUp() override {
    auto signer = provider_->make_signer(testing::seed_from_name("ckpt-owner"));
    ck_.owner = PeerId{"ckpt-owner", signer->public_key()};
    ck_.epoch = 3;
    ck_.sealed_count = 17;
    ck_.last_round = 21;
    Rng rng(7);
    for (auto& b : ck_.chain) b = static_cast<std::uint8_t>(rng.next_u64());
    for (std::size_t i = 0; i < 4; ++i) {
      auto peer = provider_->make_signer(testing::seed_from_name("p" + std::to_string(i)));
      ck_.peerset.push_back(PeerId{"p" + std::to_string(i), peer->public_key()});
    }
    std::sort(ck_.peerset.begin(), ck_.peerset.end());
    ck_.owner_sig = signer->sign(ck_.signing_payload());
    ASSERT_TRUE(verify_checkpoint(ck_, ck_.owner, *provider_));
  }
};

TEST_F(CheckpointWire, RoundTrip) {
  const Bytes wire = ck_.encode();
  const Checkpoint back = Checkpoint::decode(wire);
  EXPECT_EQ(back, ck_);
  EXPECT_TRUE(verify_checkpoint(back, ck_.owner, *provider_));

  CheckpointAnnounce ann;
  ann.checkpoint = ck_;
  ann.want_reply = true;
  const CheckpointAnnounce ann_back = CheckpointAnnounce::decode(ann.encode());
  EXPECT_EQ(ann_back.checkpoint, ck_);
  EXPECT_TRUE(ann_back.want_reply);

  SegmentRequest req{/*request_id=*/9, /*start=*/5, /*end=*/21};
  const SegmentRequest req_back = SegmentRequest::decode(req.encode());
  EXPECT_EQ(req_back.request_id, 9u);
  EXPECT_EQ(req_back.start, 5u);
  EXPECT_EQ(req_back.end, 21u);
}

TEST_F(CheckpointWire, TruncationFailsClosed) {
  const Bytes wire = ck_.encode();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    bool rejected = false;
    try {
      const Checkpoint decoded = Checkpoint::decode(cut);
      rejected = !verify_checkpoint(decoded, ck_.owner, *provider_);
    } catch (const wire::DecodeError&) {
      rejected = true;
    }
    EXPECT_TRUE(rejected) << "truncation at " << len << " accepted";
  }
}

TEST_F(CheckpointWire, BitFlipFailsClosed) {
  const Bytes wire = ck_.encode();
  Rng rng(42);
  for (int iter = 0; iter < 300; ++iter) {
    Bytes corrupt = wire;
    const std::size_t pos = rng.uniform(corrupt.size());
    corrupt[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    bool rejected = false;
    try {
      const Checkpoint decoded = Checkpoint::decode(corrupt);
      rejected = !verify_checkpoint(decoded, ck_.owner, *provider_);
    } catch (const wire::DecodeError&) {
      rejected = true;
    }
    EXPECT_TRUE(rejected) << "corrupted byte " << pos << " accepted";
  }
}

TEST_F(CheckpointWire, OversizedLengthFailsClosed) {
  // Hand-build the owner-signature length varint up to an absurd value: the
  // reader must reject, not allocate.
  wire::Writer w;
  w.raw(ck_.encode_core());
  w.varint(std::uint64_t{1} << 40);  // claimed sig length
  w.raw(Bytes{1, 2, 3});
  EXPECT_THROW(Checkpoint::decode(std::move(w).take()), wire::DecodeError);

  // A peer-list count beyond the guard rail fails before any per-peer read.
  wire::Writer w2;
  encode_peer(w2, ck_.owner);
  w2.u64(ck_.epoch);
  w2.u64(ck_.sealed_count);
  w2.u64(ck_.last_round);
  w2.raw(BytesView(ck_.chain.data(), ck_.chain.size()));
  w2.varint(std::uint64_t{200000});  // implausible peerset count
  EXPECT_THROW(Checkpoint::decode(std::move(w2).take()), wire::DecodeError);
}

TEST(CheckpointForgery, RejectedOverBothProviders) {
  for (const bool real : {false, true}) {
    const auto provider = real ? crypto::make_real_crypto() : crypto::make_fast_crypto();
    auto signer = provider->make_signer(testing::seed_from_name("owner"));
    auto other = provider->make_signer(testing::seed_from_name("other"));
    Checkpoint ck;
    ck.owner = PeerId{"owner", signer->public_key()};
    ck.epoch = 1;
    ck.sealed_count = 5;
    ck.last_round = 6;
    auto peer = provider->make_signer(testing::seed_from_name("peer"));
    ck.peerset.push_back(PeerId{"peer", peer->public_key()});
    ck.owner_sig = signer->sign(ck.signing_payload());
    ASSERT_TRUE(verify_checkpoint(ck, ck.owner, *provider)) << "real=" << real;

    // Tampered field under the original signature.
    Checkpoint tampered = ck;
    tampered.sealed_count = 6;
    const auto t = verify_checkpoint(tampered, ck.owner, *provider);
    EXPECT_FALSE(t) << "real=" << real;
    EXPECT_EQ(t.code, VerifyError::kCheckpointBadSignature) << "real=" << real;

    // Signature minted by a different key.
    Checkpoint forged = ck;
    forged.owner_sig = other->sign(forged.signing_payload());
    const auto f = verify_checkpoint(forged, ck.owner, *provider);
    EXPECT_FALSE(f) << "real=" << real;
    EXPECT_EQ(f.code, VerifyError::kCheckpointBadSignature) << "real=" << real;

    // Claimed by somebody else entirely.
    const auto o =
        verify_checkpoint(ck, PeerId{"other", other->public_key()}, *provider);
    EXPECT_FALSE(o) << "real=" << real;
    EXPECT_EQ(o.code, VerifyError::kCheckpointOwnerMismatch) << "real=" << real;

    // Structural: owner inside its own peerset.
    Checkpoint selfy = ck;
    selfy.peerset.push_back(ck.owner);
    std::sort(selfy.peerset.begin(), selfy.peerset.end());
    selfy.owner_sig = signer->sign(selfy.signing_payload());
    EXPECT_EQ(verify_checkpoint(selfy, ck.owner, *provider).code,
              VerifyError::kCheckpointMalformed)
        << "real=" << real;
  }
}

// The regression this PR exists for. Pre-checkpoint, a node whose minimal
// proof suffix outgrew its retained window could not prove its own peerset
// (bench/abl_history_limit's "proof failures" column). The same scenario with
// checkpointing on ships an anchored proof instead — and its verdict must be
// bit-identical (ok, code, reason) to the verdict an untrimmed node gets.
TEST(CheckpointRegression, TrimmedHistoryVerifiesThroughAnchor) {
  const auto provider = crypto::make_fast_crypto();
  NodeConfig trimmed, anchored, unlimited;
  for (NodeConfig* c : {&trimmed, &anchored, &unlimited}) {
    c->max_peerset = 5;
    c->shuffle_length = 3;
  }
  trimmed.history_limit = 4;    // pre-PR behavior: degradation
  anchored.history_limit = 4;   // same window, but sealed every 4 entries
  anchored.checkpoint_interval = 4;
  unlimited.history_limit = 0;  // ground truth: nothing ever trimmed

  // The three overlays evolve bit-identically: retention is invisible to the
  // commit path, so round r leaves every node with the same peerset and the
  // same appended entries in all three configs.
  constexpr std::size_t kNodes = 6;
  std::string degraded_addr;
  std::size_t rounds = 0;
  for (std::size_t r = 10; r <= 60 && degraded_addr.empty(); r += 10) {
    const auto probe = make_overlay(*provider, trimmed, kNodes, r);
    for (const auto& [addr, node] : probe) {
      // Degraded: the whole retained window no longer replays to the peerset.
      if (node->peerset().empty()) continue;
      if (UpdateHistory::reconstruct(make_history_proof(*node).suffix) !=
          node->peerset()) {
        degraded_addr = addr;
        rounds = r;
        break;
      }
    }
  }
  ASSERT_FALSE(degraded_addr.empty())
      << "no node ever outgrew its window; tighten the fixture";

  auto overlay_t = make_overlay(*provider, trimmed, kNodes, rounds);
  auto overlay_a = make_overlay(*provider, anchored, kNodes, rounds);
  auto overlay_u = make_overlay(*provider, unlimited, kNodes, rounds);
  NodeState& nt = *overlay_t.at(degraded_addr);
  NodeState& na = *overlay_a.at(degraded_addr);
  NodeState& nu = *overlay_u.at(degraded_addr);
  ASSERT_EQ(nt.peerset().sorted(), na.peerset().sorted());
  ASSERT_EQ(nt.peerset().sorted(), nu.peerset().sorted());
  ASSERT_EQ(nt.history().total_appended(), na.history().total_appended());

  const auto offer_verdict = [&](NodeState& initiator,
                                 std::map<std::string, std::unique_ptr<NodeState>>& all)
      -> std::pair<ShuffleOffer, VerifyResult> {
    const auto choice = choose_partner(initiator);
    EXPECT_TRUE(choice.has_value());
    NodeState& responder = *all.at(choice->partner.addr);
    const ShuffleOffer offer = make_offer(initiator, *choice, responder.round());
    return {offer, verify_offer(offer, responder, responder.round(), *provider)};
  };

  // Pre-PR behavior, still reachable with checkpointing off: degradation.
  const auto [offer_t, verdict_t] = offer_verdict(nt, overlay_t);
  EXPECT_FALSE(offer_t.anchor.has_value());
  EXPECT_FALSE(verdict_t) << "trimmed un-anchored proof should degrade";

  // Post-PR: the same node, same round, ships an anchored proof...
  const auto [offer_a, verdict_a] = offer_verdict(na, overlay_a);
  EXPECT_TRUE(offer_a.anchor.has_value());
  EXPECT_TRUE(verdict_a) << verdict_a.reason;

  // ...whose verdict is bit-identical to the untrimmed ground truth.
  const auto [offer_u, verdict_u] = offer_verdict(nu, overlay_u);
  EXPECT_FALSE(offer_u.anchor.has_value());
  EXPECT_TRUE(verdict_u) << verdict_u.reason;
  EXPECT_EQ(verdict_a.ok, verdict_u.ok);
  EXPECT_EQ(verdict_a.code, verdict_u.code);
  EXPECT_EQ(verdict_a.reason, verdict_u.reason);
  // And both claim the exact same peerset from the exact same entries.
  EXPECT_EQ(offer_a.claimed_peerset, offer_u.claimed_peerset);
}

}  // namespace
}  // namespace accountnet::core
