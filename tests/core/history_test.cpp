// Update-history reconstruction, minimal suffixes, and signature checks.
// The MinimalSuffix cases pin the copying reference (test_util.hpp) that
// NodeState::proof_span() is checked against.
#include <gtest/gtest.h>

#include "accountnet/core/checkpoint.hpp"
#include "accountnet/core/history.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/rng.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::reference_minimal_suffix;

PeerId pid(const std::string& addr) {
  PeerId p;
  p.addr = addr;
  return p;
}

HistoryEntry shuffle_entry(Round r, std::vector<std::string> out,
                           std::vector<std::string> in,
                           std::vector<std::string> fill = {}) {
  HistoryEntry e;
  e.kind = EntryKind::kShuffle;
  e.self_round = r;
  e.counterpart = pid("cp" + std::to_string(r));
  e.nonce = r * 10;
  for (auto& s : out) e.out.push_back(pid(s));
  for (auto& s : in) e.in.push_back(pid(s));
  for (auto& s : fill) e.fill.push_back(pid(s));
  return e;
}

TEST(History, ReconstructAppliesDeltasInOrder) {
  std::vector<HistoryEntry> entries;
  entries.push_back(shuffle_entry(0, {}, {"a", "b", "c"}));
  entries.push_back(shuffle_entry(1, {"a"}, {"d"}));
  entries.push_back(shuffle_entry(2, {"b", "d"}, {"e"}, {"b"}));
  const Peerset n = UpdateHistory::reconstruct(entries);
  EXPECT_EQ(n, Peerset({pid("c"), pid("e"), pid("b")}));
}

TEST(History, ReconstructEmpty) {
  EXPECT_TRUE(UpdateHistory::reconstruct({}).empty());
}

TEST(History, AppendRequiresAscendingRounds) {
  UpdateHistory h;
  h.append(shuffle_entry(3, {}, {"a"}));
  EXPECT_THROW(h.append(shuffle_entry(3, {}, {"b"})), EnsureError);
  EXPECT_THROW(h.append(shuffle_entry(2, {}, {"b"})), EnsureError);
  h.append(shuffle_entry(5, {}, {"b"}));  // gaps allowed (burned rounds)
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.total_appended(), 2u);
}

TEST(History, MinimalSuffixCoversOldestCurrentPeer) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a", "b"}));
  h.append(shuffle_entry(1, {"a"}, {"c"}));
  h.append(shuffle_entry(2, {"b"}, {"d"}));
  // Current set {c, d}: entry 1 introduced c, entry 2 introduced d and
  // removed b; suffix (1,2) reconstructs {c,d} exactly.
  const Peerset current({pid("c"), pid("d")});
  EXPECT_EQ(reference_minimal_suffix(h, current), 2u);
  EXPECT_EQ(UpdateHistory::reconstruct(h.suffix(2)), current);
}

TEST(History, MinimalSuffixAccountsForRefills) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a", "b"}));
  h.append(shuffle_entry(1, {"a", "b"}, {"c"}, {"a"}));  // a came back via fill
  const Peerset current({pid("a"), pid("c")});
  EXPECT_EQ(reference_minimal_suffix(h, current), 1u);
  EXPECT_EQ(UpdateHistory::reconstruct(h.suffix(1)), current);
}

TEST(History, MinimalSuffixEmptyPeerset) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a"}));
  EXPECT_EQ(reference_minimal_suffix(h, Peerset{}), 0u);
}

TEST(History, MinimalSuffixFullHistoryNeeded) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a"}));
  h.append(shuffle_entry(1, {}, {"b"}));
  const Peerset current({pid("a"), pid("b")});
  EXPECT_EQ(reference_minimal_suffix(h, current), 2u);
}

TEST(History, MinimalSuffixImpossibleAfterTrim) {
  UpdateHistory h;
  h.append(shuffle_entry(0, {}, {"a"}));
  h.append(shuffle_entry(1, {}, {"b"}));
  h.trim(1);
  const Peerset current({pid("a"), pid("b")});
  EXPECT_EQ(reference_minimal_suffix(h, current), h.size() + 1);
}

// Seeded random entries over a small peer universe, committed through
// NodeState::commit_shuffle with the peerset their deltas give, so peers
// leave and come back (in, then out, then in or fill again), an entry may
// remove and re-add one peer, list a peer twice or remove an absent one, and
// trimming cuts the minimal suffix. After every commit the O(f) proof length
// must equal the copying reference.
TEST(History, MinimalSuffixMatchesCopyingReferenceOnRandomHistories) {
  const auto provider = crypto::make_fast_crypto();
  Rng rng(20260417);
  std::size_t degraded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t universe = 3 + rng.uniform(6);
    const auto random_peers = [&](std::size_t max) {
      std::vector<std::string> out;
      const std::size_t n = rng.uniform(max + 1);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back("p" + std::to_string(rng.uniform(universe)));
      }
      return out;
    };
    NodeConfig config;
    config.max_peerset = 16;
    config.shuffle_length = 1;
    config.history_limit = rng.chance(0.3) ? 1 + rng.uniform(6) : 0;
    auto node = testing::make_node("owner", *provider, config);
    node->init_as_seed();
    const std::size_t len = rng.uniform(12);
    for (std::size_t r = 0; r < len; ++r) {
      HistoryEntry e = shuffle_entry(node->round(), random_peers(2), random_peers(3),
                                     random_peers(1));
      Peerset next = node->peerset();
      for (const auto& p : e.out) next.erase(p);
      next.insert_all(e.in);
      next.insert_all(e.fill);
      node->commit_shuffle(std::move(e), std::move(next));

      const std::size_t want = reference_minimal_suffix(node->history(), node->peerset());
      const NodeState::ProofSpan span = node->proof_span();
      ASSERT_EQ(span.length, std::min(want, node->history().size()))
          << "trial " << trial << " entry " << r;
      ASSERT_FALSE(span.anchored);
      if (want > node->history().size()) ++degraded;
    }
  }
  EXPECT_GT(degraded, 10u);  // trimming did cut minimal suffixes
}

TEST(History, SuffixReturnsNewestEntriesOldestFirst) {
  UpdateHistory h;
  for (Round r = 0; r < 5; ++r) h.append(shuffle_entry(r, {}, {"p" + std::to_string(r)}));
  const auto s = h.suffix(2);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].self_round, 3u);
  EXPECT_EQ(s[1].self_round, 4u);
  EXPECT_EQ(h.suffix(99).size(), 5u);
}

TEST(History, TrimDropsOldest) {
  UpdateHistory h;
  for (Round r = 0; r < 10; ++r) h.append(shuffle_entry(r, {}, {}));
  h.trim(3);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h.entries().front().self_round, 7u);
  EXPECT_EQ(h.total_appended(), 10u);
}

TEST(History, EntryWireRoundTrip) {
  HistoryEntry e = shuffle_entry(7, {"a", "b"}, {"c"}, {"a"});
  e.signature = {1, 2, 3};
  e.initiated = true;
  wire::Writer w;
  encode_entry(w, e);
  wire::Reader r(w.data());
  const HistoryEntry d = decode_entry(r);
  r.expect_done();
  EXPECT_EQ(d, e);
}

TEST(History, EntryDecodeRejectsBadKind) {
  wire::Writer w;
  w.u8(9);
  wire::Reader r(w.data());
  EXPECT_THROW(decode_entry(r), wire::DecodeError);
}

TEST(History, PayloadsAreDomainSeparated) {
  // The same numeric nonce must produce different signing payloads per kind.
  const Bytes a = shuffle_nonce_payload(5);
  const Bytes b = leave_payload(5, "x");
  const Bytes c = join_stamp_payload("x");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

class HistorySuffixVerify : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_fast_crypto();

  PeerId make_id(const std::string& addr, const crypto::Signer& s) {
    return PeerId{addr, s.public_key()};
  }
};

TEST_F(HistorySuffixVerify, AcceptsHonestJoinPlusShuffle) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto bn_signer = provider_->make_signer(Bytes(32, 2));
  const auto cp_signer = provider_->make_signer(Bytes(32, 3));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId bn = make_id("bn", *bn_signer);
  const PeerId cp = make_id("cp", *cp_signer);

  HistoryEntry join;
  join.kind = EntryKind::kJoin;
  join.self_round = 0;
  join.counterpart = bn;
  join.signature = bn_signer->sign(join_stamp_payload(owner.addr));
  join.in = {pid("a"), cp};

  HistoryEntry sh;
  sh.kind = EntryKind::kShuffle;
  sh.self_round = 1;
  sh.counterpart = cp;
  sh.nonce = 9;
  sh.signature = cp_signer->sign(shuffle_nonce_payload(9));
  sh.out = {pid("a")};
  sh.in = {pid("b")};

  const Peerset claimed({cp, pid("b")});
  EXPECT_TRUE(verify_history_suffix({join, sh}, owner, claimed, *provider_));
}

TEST_F(HistorySuffixVerify, RejectsForgedSignature) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const PeerId owner = make_id("owner", *owner_signer);
  HistoryEntry sh;
  sh.kind = EntryKind::kShuffle;
  sh.self_round = 1;
  sh.counterpart = pid("cp");  // key is all-zero: signature cannot verify
  sh.nonce = 9;
  sh.signature = Bytes(32, 0xab);
  sh.in = {pid("b")};
  const auto r = verify_history_suffix({sh}, owner, Peerset({pid("b")}), *provider_);
  EXPECT_FALSE(r);
  EXPECT_NE(r.reason.find("signature"), std::string::npos);
}

TEST_F(HistorySuffixVerify, RejectsPeersetMismatch) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto cp_signer = provider_->make_signer(Bytes(32, 3));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId cp = make_id("cp", *cp_signer);
  HistoryEntry sh;
  sh.kind = EntryKind::kShuffle;
  sh.self_round = 1;
  sh.counterpart = cp;
  sh.nonce = 9;
  sh.signature = cp_signer->sign(shuffle_nonce_payload(9));
  sh.in = {pid("b")};
  // Claim includes a peer the history never introduced.
  const auto r =
      verify_history_suffix({sh}, owner, Peerset({pid("b"), pid("ghost")}), *provider_);
  EXPECT_FALSE(r);
  EXPECT_NE(r.reason.find("reconstructed"), std::string::npos);
}

TEST_F(HistorySuffixVerify, RejectsNonAscendingRounds) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto cp_signer = provider_->make_signer(Bytes(32, 3));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId cp = make_id("cp", *cp_signer);
  auto entry = [&](Round r) {
    HistoryEntry e;
    e.kind = EntryKind::kShuffle;
    e.self_round = r;
    e.counterpart = cp;
    e.nonce = r;
    e.signature = cp_signer->sign(shuffle_nonce_payload(r));
    return e;
  };
  const auto r = verify_history_suffix({entry(5), entry(5)}, owner, Peerset{}, *provider_);
  EXPECT_FALSE(r);
}

TEST_F(HistorySuffixVerify, RejectsJoinAfterRoundZero) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto bn_signer = provider_->make_signer(Bytes(32, 2));
  const PeerId owner = make_id("owner", *owner_signer);
  HistoryEntry join;
  join.kind = EntryKind::kJoin;
  join.self_round = 4;
  join.counterpart = make_id("bn", *bn_signer);
  join.signature = bn_signer->sign(join_stamp_payload(owner.addr));
  const auto r = verify_history_suffix({join}, owner, Peerset{}, *provider_);
  EXPECT_FALSE(r);
}

TEST_F(HistorySuffixVerify, RejectsSelfInsertion) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto cp_signer = provider_->make_signer(Bytes(32, 3));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId cp = make_id("cp", *cp_signer);
  HistoryEntry sh;
  sh.kind = EntryKind::kShuffle;
  sh.self_round = 1;
  sh.counterpart = cp;
  sh.nonce = 2;
  sh.signature = cp_signer->sign(shuffle_nonce_payload(2));
  sh.in = {owner};
  const auto r = verify_history_suffix({sh}, owner, Peerset({owner}), *provider_);
  EXPECT_FALSE(r);
}

TEST_F(HistorySuffixVerify, RejectsMalformedLeave) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto rep_signer = provider_->make_signer(Bytes(32, 4));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId rep = make_id("rep", *rep_signer);
  HistoryEntry lv;
  lv.kind = EntryKind::kLeave;
  lv.self_round = 1;
  lv.counterpart = rep;
  lv.nonce = 3;
  lv.out = {pid("x"), pid("y")};  // must be exactly one leaver
  lv.signature = rep_signer->sign(leave_payload(3, "x"));
  EXPECT_FALSE(verify_history_suffix({lv}, owner, Peerset{}, *provider_));
}

TEST_F(HistorySuffixVerify, AcceptsValidLeave) {
  const auto owner_signer = provider_->make_signer(Bytes(32, 1));
  const auto rep_signer = provider_->make_signer(Bytes(32, 4));
  const PeerId owner = make_id("owner", *owner_signer);
  const PeerId rep = make_id("rep", *rep_signer);
  HistoryEntry lv;
  lv.kind = EntryKind::kLeave;
  lv.self_round = 1;
  lv.counterpart = rep;
  lv.nonce = 3;
  lv.out = {pid("x")};
  lv.signature = rep_signer->sign(leave_payload(3, "x"));
  EXPECT_TRUE(verify_history_suffix({lv}, owner, Peerset{}, *provider_));
}

// --- First failure wins -------------------------------------------------------
//
// verify_history_suffix and verify_history_suffix_anchored run one loop that
// checks entry by entry and stops at the first failing check, so a fault in
// an earlier entry decides the verdict whatever follows it, and within an
// entry the checks run in a fixed order.

class HistoryFirstFailure : public HistorySuffixVerify {
 protected:
  std::unique_ptr<crypto::Signer> owner_signer_ = provider_->make_signer(Bytes(32, 1));
  std::unique_ptr<crypto::Signer> cp_signer_ = provider_->make_signer(Bytes(32, 3));
  PeerId owner_ = make_id("owner", *owner_signer_);
  PeerId cp_ = make_id("cp", *cp_signer_);

  HistoryEntry shuffle_entry(Round r) const {
    HistoryEntry e;
    e.kind = EntryKind::kShuffle;
    e.self_round = r;
    e.counterpart = cp_;
    e.nonce = 10 + r;
    e.signature = cp_signer_->sign(shuffle_nonce_payload(e.nonce));
    e.in = {pid("p" + std::to_string(r))};
    return e;
  }

  static void forge(HistoryEntry& e) { e.signature.front() ^= 0x01; }
  void insert_owner(HistoryEntry& e) const { e.in.push_back(owner_); }

  /// The verdict codes of the plain and the checkpoint-anchored verifier.
  /// The checkpoint seals round 0 with an empty peerset, so every suffix
  /// entry from round 1 on replays exactly as it does without an anchor.
  std::pair<VerifyError, VerifyError> codes(const std::vector<HistoryEntry>& suffix) const {
    Checkpoint ck;
    ck.owner = owner_;
    ck.epoch = 1;
    ck.sealed_count = 1;
    ck.last_round = 0;
    ck.owner_sig = owner_signer_->sign(ck.signing_payload());
    const Peerset claimed = UpdateHistory::reconstruct(suffix);
    return {verify_history_suffix(suffix, owner_, claimed, *provider_).code,
            verify_history_suffix_anchored(ck, suffix, owner_, claimed, *provider_).code};
  }
};

TEST_F(HistoryFirstFailure, BadSignatureBeforeStructuralFaultReportsSignature) {
  std::vector<HistoryEntry> suffix = {shuffle_entry(1), shuffle_entry(2), shuffle_entry(3)};
  forge(suffix[1]);
  insert_owner(suffix[2]);
  const auto [plain, anchored] = codes(suffix);
  EXPECT_EQ(plain, VerifyError::kInvalidShuffleSignature);
  EXPECT_EQ(anchored, VerifyError::kInvalidShuffleSignature);
}

TEST_F(HistoryFirstFailure, StructuralFaultBeforeBadSignatureReportsStructure) {
  std::vector<HistoryEntry> suffix = {shuffle_entry(1), shuffle_entry(2), shuffle_entry(3)};
  insert_owner(suffix[1]);
  forge(suffix[2]);
  const auto [plain, anchored] = codes(suffix);
  EXPECT_EQ(plain, VerifyError::kOwnerInsertedIntoOwnPeerset);
  EXPECT_EQ(anchored, VerifyError::kOwnerInsertedIntoOwnPeerset);
}

TEST_F(HistoryFirstFailure, JoinStampIsCheckedBeforeJoinRemovals) {
  const auto bn_signer = provider_->make_signer(Bytes(32, 2));
  HistoryEntry join;
  join.kind = EntryKind::kJoin;
  join.self_round = 0;
  join.counterpart = make_id("bn", *bn_signer);
  join.signature = bn_signer->sign(join_stamp_payload("someone-else"));  // bad stamp
  join.out = {pid("x")};                                                 // and removes
  join.in = {cp_};
  const auto [plain, anchored] = codes({join, shuffle_entry(1)});
  EXPECT_EQ(plain, VerifyError::kInvalidJoinStamp);
  // After a checkpoint every entry must come after the sealed round, so a
  // round-0 join fails the ordering check before any of its own checks.
  EXPECT_EQ(anchored, VerifyError::kRoundsNotAscending);
}

}  // namespace
}  // namespace accountnet::core
