// Accusation verification against the REAL crypto backend (Ed25519+ECVRF).
//
// Two property families, per the accountability design invariant:
//   - a detector holding genuinely body-signed cheating material can build an
//     accusation any third party verifies from its bytes alone;
//   - every forged-accusation construction against an HONEST node fails
//     closed (bad attribution or not-proven), because honest nodes only ever
//     sign protocol-conforming messages.
// Plus the wire properties: round-trip fidelity, truncations and seeded
// byte corruptions all fail closed (decode throws or verification fails).
#include <gtest/gtest.h>

#include <map>

#include "accountnet/core/accusation.hpp"
#include "accountnet/core/history.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/util/bytes.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/wire/codec.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;
using testing::run_shuffle;

Bytes digest_bytes(const DataDigest& d) { return Bytes(d.begin(), d.end()); }

class AccusationFixture : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_real_crypto();
  NodeConfig config_;
  std::map<std::string, std::unique_ptr<NodeState>> nodes_;
  NodeState* initiator_ = nullptr;
  NodeState* responder_ = nullptr;
  NodeState* third_ = nullptr;
  PartnerChoice choice_;

  void SetUp() override {
    config_.max_peerset = 5;
    config_.shuffle_length = 3;
    std::vector<PeerId> ids;
    for (std::size_t i = 0; i < 6; ++i) {
      const std::string addr = "acc" + std::to_string(100 + i);
      auto node = make_node(addr, *provider_, config_);
      ids.push_back(node->self());
      nodes_[addr] = std::move(node);
    }
    auto& bootstrap = *nodes_.begin()->second;
    for (auto& [addr, node] : nodes_) {
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
    // One committed shuffle so the initiator's history carries a kShuffle
    // entry (the equivocation attack doctors that entry's `in`).
    for (auto& [addr, node] : nodes_) {
      if (node->peerset().empty()) continue;
      const auto choice = choose_partner(*node);
      if (!choice || !nodes_.count(choice->partner.addr)) continue;
      if (run_shuffle(*node, *nodes_.at(choice->partner.addr), *provider_).empty()) {
        initiator_ = node.get();
        break;
      }
    }
    ASSERT_NE(initiator_, nullptr);
    const auto choice = choose_partner(*initiator_);
    ASSERT_TRUE(choice.has_value());
    choice_ = *choice;
    responder_ = nodes_.at(choice_.partner.addr).get();
    for (auto& [addr, node] : nodes_) {
      if (node.get() != initiator_ && node.get() != responder_) {
        third_ = node.get();
        break;
      }
    }
    ASSERT_NE(third_, nullptr);
  }

  ShuffleOffer signed_offer() {
    ShuffleOffer offer = make_offer(*initiator_, choice_, responder_->round());
    sign_offer(offer);
    return offer;
  }

  void sign_offer(ShuffleOffer& offer) {
    offer.body_sig = initiator_->signer().sign(
        offer_body_payload(offer.encode_core(), responder_->self()));
  }

  Accusation base_accusation(AccusationKind kind, const PeerId& accused,
                             NodeState& accuser) {
    Accusation acc;
    acc.kind = kind;
    acc.accused = accused;
    acc.accuser = accuser.self();
    return acc;
  }

  void sign_accusation(Accusation& acc, NodeState& accuser) {
    acc.accuser_sig = accuser.signer().sign(acc.signing_payload());
  }

  /// A fully-populated, genuinely-proven kRelayTamper accusation (the most
  /// field-complete kind), reused by the wire-property tests.
  Accusation tamper_accusation() {
    NodeState& producer = *initiator_;
    NodeState& witness = *responder_;
    NodeState& consumer = *third_;
    const std::uint64_t ch = 7, seq = 3;
    const DataDigest honest = digest_of(bytes_of("the-payload"));
    const DataDigest tampered = digest_of(bytes_of("tampered-payload"));

    Accusation acc = base_accusation(AccusationKind::kRelayTamper, witness.self(),
                                     consumer);
    acc.channel_id = ch;
    acc.sequence = seq;
    acc.producer = producer.self();
    acc.consumer_addr = consumer.self().addr;
    acc.duty_sig = witness.signer().sign(
        wduty_payload(ch, producer.self(), consumer.self().addr, witness.self().addr));
    acc.header_sig = producer.signer().sign(relay_header_payload(ch, seq, honest));
    acc.digest_a = digest_bytes(tampered);
    acc.sig_a = witness.signer().sign(forward_payload(ch, seq, tampered, acc.header_sig));
    sign_accusation(acc, consumer);
    return acc;
  }
};

// --- kInvalidOffer ---------------------------------------------------------

TEST_F(AccusationFixture, SignedCheatingOfferConvicts) {
  ShuffleOffer offer = make_offer(*initiator_, choice_, responder_->round());
  ASSERT_FALSE(offer.history_suffix.empty());
  offer.history_suffix.front().signature.front() ^= 0x01;  // forge an entry
  sign_offer(offer);  // the cheater signs what it actually sends
  ASSERT_FALSE(verify_offer_static(offer, responder_->self(), config_, *provider_));

  Accusation acc = base_accusation(AccusationKind::kInvalidOffer, initiator_->self(),
                                   *responder_);
  acc.items.push_back({1, offer.encode(), {}, responder_->self()});
  sign_accusation(acc, *responder_);
  EXPECT_TRUE(verify_accusation(acc, *provider_, config_));
}

TEST_F(AccusationFixture, HonestOfferCannotBeFramed) {
  const ShuffleOffer offer = signed_offer();
  Accusation acc = base_accusation(AccusationKind::kInvalidOffer, initiator_->self(),
                                   *responder_);
  acc.items.push_back({1, offer.encode(), {}, responder_->self()});
  sign_accusation(acc, *responder_);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationNotProven);
}

TEST_F(AccusationFixture, DoctoredHonestOfferFailsAttribution) {
  // The accuser corrupts the honest offer AFTER the accused signed it: the
  // body signature no longer covers the bytes, so the evidence is
  // unattributable and the frame-up dies at attribution.
  ShuffleOffer offer = signed_offer();
  offer.history_suffix.front().signature.front() ^= 0x01;
  Accusation acc = base_accusation(AccusationKind::kInvalidOffer, initiator_->self(),
                                   *responder_);
  acc.items.push_back({1, offer.encode(), {}, responder_->self()});
  sign_accusation(acc, *responder_);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationEvidenceInvalid);
}

TEST_F(AccusationFixture, RetargetedOfferFailsAttribution) {
  // The body signature binds the addressed responder; claiming the offer was
  // sent to someone else (for whom its checks would fail) doesn't attribute.
  const ShuffleOffer offer = signed_offer();
  Accusation acc = base_accusation(AccusationKind::kInvalidOffer, initiator_->self(),
                                   *third_);
  acc.items.push_back({1, offer.encode(), {}, third_->self()});
  sign_accusation(acc, *third_);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationEvidenceInvalid);
}

TEST_F(AccusationFixture, UnsignedAccusationRejected) {
  const ShuffleOffer offer = signed_offer();
  Accusation acc = base_accusation(AccusationKind::kInvalidOffer, initiator_->self(),
                                   *responder_);
  acc.items.push_back({1, offer.encode(), {}, responder_->self()});
  // No accuser signature at all.
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationBadSignature);
}

TEST_F(AccusationFixture, SelfAccusationRejected) {
  const ShuffleOffer offer = signed_offer();
  Accusation acc = base_accusation(AccusationKind::kInvalidOffer, initiator_->self(),
                                   *initiator_);
  acc.items.push_back({1, offer.encode(), {}, responder_->self()});
  sign_accusation(acc, *initiator_);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationSelfAccusation);
}

// --- kInvalidResponse ------------------------------------------------------

TEST_F(AccusationFixture, SignedCheatingResponseConvicts) {
  const ShuffleOffer offer = signed_offer();
  const Bytes offer_wire = offer.encode();
  ShuffleResponse resp = make_response_and_commit(*responder_, offer);
  ASSERT_FALSE(resp.history_suffix.empty());
  resp.history_suffix.front().signature.front() ^= 0x01;
  resp.body_sig = responder_->signer().sign(
      response_body_payload(offer_wire, resp.encode_core()));
  ASSERT_FALSE(verify_response_static(resp, offer, initiator_->self(), config_,
                                      *provider_));

  Accusation acc = base_accusation(AccusationKind::kInvalidResponse,
                                   responder_->self(), *initiator_);
  acc.items.push_back({2, offer_wire, resp.encode(), {}});
  sign_accusation(acc, *initiator_);
  EXPECT_TRUE(verify_accusation(acc, *provider_, config_));
}

TEST_F(AccusationFixture, HonestResponseCannotBeFramedWithSwappedOffer) {
  // The response signature binds the exact offer wire bytes; pairing the
  // honest response with a different offer (to make its checks fail) breaks
  // attribution.
  const ShuffleOffer offer = signed_offer();
  const Bytes offer_wire = offer.encode();
  ShuffleResponse resp = make_response_and_commit(*responder_, offer);
  resp.body_sig = responder_->signer().sign(
      response_body_payload(offer_wire, resp.encode_core()));

  ShuffleOffer other = offer;
  other.initiator_round += 1;  // any contextual doctoring
  sign_offer(other);
  Accusation acc = base_accusation(AccusationKind::kInvalidResponse,
                                   responder_->self(), *initiator_);
  acc.items.push_back({2, other.encode(), resp.encode(), {}});
  sign_accusation(acc, *initiator_);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationEvidenceInvalid);
}

// --- kHistoryEquivocation --------------------------------------------------

TEST_F(AccusationFixture, ForkedHistoryConvicts) {
  ShuffleOffer honest = signed_offer();
  ASSERT_FALSE(honest.history_suffix.empty());

  ShuffleOffer forked = honest;
  PeerId phantom;
  phantom.addr = "zz-phantom";
  phantom.key = initiator_->self().key;  // any key; the entry is not re-signed
  forked.history_suffix.back().in.push_back(phantom);
  forked.claimed_peerset =
      UpdateHistory::reconstruct(forked.history_suffix).sorted();
  sign_offer(forked);  // the equivocator signs both variants itself

  Accusation acc = base_accusation(AccusationKind::kHistoryEquivocation,
                                   initiator_->self(), *responder_);
  acc.round = honest.history_suffix.back().self_round;
  acc.items.push_back({1, honest.encode(), {}, responder_->self()});
  acc.items.push_back({1, forked.encode(), {}, responder_->self()});
  sign_accusation(acc, *responder_);
  EXPECT_TRUE(verify_accusation(acc, *provider_, config_));
}

TEST_F(AccusationFixture, ConsistentHistoryCannotBeFramedAsEquivocation) {
  const ShuffleOffer offer = signed_offer();
  Accusation acc = base_accusation(AccusationKind::kHistoryEquivocation,
                                   initiator_->self(), *responder_);
  acc.round = offer.history_suffix.back().self_round;
  acc.items.push_back({1, offer.encode(), {}, responder_->self()});
  acc.items.push_back({1, offer.encode(), {}, responder_->self()});
  sign_accusation(acc, *responder_);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationNotProven);
}

// --- kTestimonyEquivocation ------------------------------------------------

TEST_F(AccusationFixture, ConflictingTestimoniesConvict) {
  NodeState& witness = *responder_;
  const std::uint64_t ch = 5, seq = 9;
  const DataDigest da = digest_of(bytes_of("version-a"));
  const DataDigest db = digest_of(bytes_of("version-b"));
  Accusation acc = base_accusation(AccusationKind::kTestimonyEquivocation,
                                   witness.self(), *initiator_);
  acc.channel_id = ch;
  acc.sequence = seq;
  acc.digest_a = digest_bytes(da);
  acc.digest_b = digest_bytes(db);
  acc.sig_a = witness.signer().sign(evidence_payload(ch, seq, da));
  acc.sig_b = witness.signer().sign(evidence_payload(ch, seq, db));
  sign_accusation(acc, *initiator_);
  EXPECT_TRUE(verify_accusation(acc, *provider_, config_));
}

TEST_F(AccusationFixture, SingleTestimonyCannotBeFramedAsEquivocation) {
  NodeState& witness = *responder_;
  const std::uint64_t ch = 5, seq = 9;
  const DataDigest da = digest_of(bytes_of("version-a"));
  const DataDigest db = digest_of(bytes_of("fabricated"));
  Accusation acc = base_accusation(AccusationKind::kTestimonyEquivocation,
                                   witness.self(), *initiator_);
  acc.channel_id = ch;
  acc.sequence = seq;
  acc.digest_a = digest_bytes(da);
  acc.digest_b = digest_bytes(db);
  acc.sig_a = witness.signer().sign(evidence_payload(ch, seq, da));
  acc.sig_b = initiator_->signer().sign(evidence_payload(ch, seq, db));  // not hers
  sign_accusation(acc, *initiator_);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationEvidenceInvalid);
}

// --- kRelayTamper ----------------------------------------------------------

TEST_F(AccusationFixture, TamperedForwardConvicts) {
  EXPECT_TRUE(verify_accusation(tamper_accusation(), *provider_, config_));
}

TEST_F(AccusationFixture, FaithfulForwardCannotBeFramedAsTamper) {
  // The honest witness forwarded exactly the digest the producer signed, so
  // the header matches the forward and nothing is proven.
  NodeState& producer = *initiator_;
  NodeState& witness = *responder_;
  NodeState& consumer = *third_;
  const std::uint64_t ch = 7, seq = 3;
  const DataDigest honest = digest_of(bytes_of("the-payload"));

  Accusation acc = base_accusation(AccusationKind::kRelayTamper, witness.self(),
                                   consumer);
  acc.channel_id = ch;
  acc.sequence = seq;
  acc.producer = producer.self();
  acc.consumer_addr = consumer.self().addr;
  acc.duty_sig = witness.signer().sign(
      wduty_payload(ch, producer.self(), consumer.self().addr, witness.self().addr));
  acc.header_sig = producer.signer().sign(relay_header_payload(ch, seq, honest));
  acc.digest_a = digest_bytes(honest);
  acc.sig_a = witness.signer().sign(forward_payload(ch, seq, honest, acc.header_sig));
  sign_accusation(acc, consumer);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationNotProven);

  // Lying about what the witness forwarded breaks the forward signature.
  Accusation lied = acc;
  lied.digest_a = digest_bytes(digest_of(bytes_of("never-forwarded")));
  sign_accusation(lied, consumer);
  const auto r2 = verify_accusation(lied, *provider_, config_);
  EXPECT_FALSE(r2);
  EXPECT_EQ(r2.code, VerifyError::kAccusationEvidenceInvalid);
}

TEST_F(AccusationFixture, TamperWithoutDutyFailsAttribution) {
  Accusation acc = tamper_accusation();
  acc.duty_sig = acc.sig_a;  // not a duty signature
  sign_accusation(acc, *third_);
  const auto r = verify_accusation(acc, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationEvidenceInvalid);
}

// --- kTestimonyMismatch ----------------------------------------------------

TEST_F(AccusationFixture, ForwardTestimonyConflictConvicts) {
  NodeState& witness = *responder_;
  NodeState& consumer = *third_;
  const std::uint64_t ch = 11, seq = 4;
  const DataDigest fwd = digest_of(bytes_of("forwarded"));
  const DataDigest logged = digest_of(bytes_of("logged"));
  const Bytes header = initiator_->signer().sign(relay_header_payload(ch, seq, fwd));

  Accusation acc = base_accusation(AccusationKind::kTestimonyMismatch,
                                   witness.self(), consumer);
  acc.channel_id = ch;
  acc.sequence = seq;
  acc.header_sig = header;
  acc.digest_a = digest_bytes(fwd);
  acc.sig_a = witness.signer().sign(forward_payload(ch, seq, fwd, header));
  acc.digest_b = digest_bytes(logged);
  acc.sig_b = witness.signer().sign(evidence_payload(ch, seq, logged));
  sign_accusation(acc, consumer);
  EXPECT_TRUE(verify_accusation(acc, *provider_, config_));

  // Honest witness: forward and testimony agree -> nothing proven.
  Accusation honest = acc;
  honest.digest_b = honest.digest_a;
  honest.sig_b = witness.signer().sign(evidence_payload(ch, seq, fwd));
  sign_accusation(honest, consumer);
  const auto r = verify_accusation(honest, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationNotProven);
}

// --- kRelayOmission --------------------------------------------------------

TEST_F(AccusationFixture, OmissionEvidenceVerifiesButNeedsChallenge) {
  // A pass here only authenticates duty + data; conviction is the live
  // challenge's job (core::Node), so honest silence cannot be manufactured.
  NodeState& producer = *initiator_;
  NodeState& witness = *responder_;
  NodeState& consumer = *third_;
  const std::uint64_t ch = 2, seq = 8;
  const DataDigest d = digest_of(bytes_of("relayed"));

  Accusation acc = base_accusation(AccusationKind::kRelayOmission, witness.self(),
                                   consumer);
  acc.channel_id = ch;
  acc.sequence = seq;
  acc.producer = producer.self();
  acc.consumer_addr = consumer.self().addr;
  acc.duty_sig = witness.signer().sign(
      wduty_payload(ch, producer.self(), consumer.self().addr, witness.self().addr));
  acc.header_sig = producer.signer().sign(relay_header_payload(ch, seq, d));
  acc.digest_a = digest_bytes(d);
  sign_accusation(acc, consumer);
  EXPECT_TRUE(verify_accusation(acc, *provider_, config_));

  // A header the producer never signed fails attribution.
  Accusation forged = acc;
  forged.digest_a = digest_bytes(digest_of(bytes_of("never-sent")));
  sign_accusation(forged, consumer);
  const auto r = verify_accusation(forged, *provider_, config_);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kAccusationEvidenceInvalid);
}

// --- Wire properties -------------------------------------------------------

TEST_F(AccusationFixture, WireRoundTripIsFaithful) {
  const Accusation acc = tamper_accusation();
  const Bytes wire = acc.encode();
  const Accusation back = Accusation::decode(wire);
  EXPECT_EQ(back.encode(), wire);
  EXPECT_EQ(back.digest(), acc.digest());
  EXPECT_TRUE(verify_accusation(back, *provider_, config_));
}

TEST_F(AccusationFixture, EveryTruncationFailsClosed) {
  const Bytes wire = tamper_accusation().encode();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(Accusation::decode(BytesView(wire.data(), len)), wire::DecodeError)
        << "prefix length " << len;
  }
}

TEST_F(AccusationFixture, EngineCachedPathMatchesProviderAndFailsForgeriesClosed) {
  // Accusation re-verification routes through a VerificationEngine in
  // core::Node; the engine path must convict and acquit exactly like the
  // bare provider, on the first pass and on a repeat. A forgery seen after
  // the genuine material verified must still fail.
  VerificationEngine engine(*provider_);
  const Accusation genuine = tamper_accusation();
  Accusation forged = genuine;
  forged.sig_a.front() ^= 0x01;  // witness forward signature no longer checks

  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_TRUE(verify_accusation(genuine, engine, config_)) << "pass " << pass;
    const auto want = verify_accusation(forged, *provider_, config_);
    ASSERT_FALSE(want.ok);
    const auto got = verify_accusation(forged, engine, config_);
    EXPECT_FALSE(got.ok) << "pass " << pass;
    EXPECT_EQ(got.code, want.code) << "pass " << pass;
  }
  EXPECT_GT(engine.stats().sig_misses, 0u) << "the engine must have been consulted";
}

TEST_F(AccusationFixture, SeededCorruptionsFailClosed) {
  // Fuzz-style: every single-byte corruption either fails to decode or
  // decodes into an accusation whose accuser signature no longer verifies.
  const Accusation acc = tamper_accusation();
  const Bytes wire = acc.encode();
  Rng rng(20260806);
  for (int i = 0; i < 300; ++i) {
    Bytes corrupt = wire;
    const std::size_t pos = rng.uniform(corrupt.size());
    corrupt[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      const Accusation decoded = Accusation::decode(corrupt);
      EXPECT_FALSE(verify_accusation(decoded, *provider_, config_))
          << "corrupted byte " << pos << " verified";
    } catch (const wire::DecodeError&) {
      // fail closed at decode — equally fine
    }
  }
}

}  // namespace
}  // namespace accountnet::core
