#include "accountnet/core/shuffle.hpp"

#include <algorithm>

#include "accountnet/core/sampler.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/wire/codec.hpp"

namespace accountnet::core {

namespace {

void encode_peer_list(wire::Writer& w, const std::vector<PeerId>& peers) {
  w.varint(peers.size());
  for (const auto& p : peers) encode_peer(w, p);
}

std::vector<PeerId> decode_peer_list(wire::Reader& r) {
  const auto n = r.varint();
  if (n > 100000) throw wire::DecodeError("peer list implausibly long");
  std::vector<PeerId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_peer(r));
  return out;
}

void encode_bytes_list(wire::Writer& w, const std::vector<Bytes>& list) {
  w.varint(list.size());
  for (const auto& b : list) w.bytes(b);
}

std::vector<Bytes> decode_bytes_list(wire::Reader& r) {
  const auto n = r.varint();
  if (n > 100000) throw wire::DecodeError("bytes list implausibly long");
  std::vector<Bytes> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.bytes());
  return out;
}

void encode_entries(wire::Writer& w, const std::vector<HistoryEntry>& entries) {
  w.varint(entries.size());
  for (const auto& e : entries) encode_entry(w, e);
}

std::vector<HistoryEntry> decode_entries(wire::Reader& r) {
  const auto n = r.varint();
  if (n > 100000) throw wire::DecodeError("history suffix implausibly long");
  std::vector<HistoryEntry> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_entry(r));
  return out;
}

// Optional checkpoint anchor, marked by a 0x01 byte so non-anchored messages
// keep their historical bytes exactly. The marker is unambiguous against the
// only other thing that can follow the suffix — the trailing body_sig, whose
// varint length prefix is 0x20/0x40 for the signature sizes honest encoders
// emit (a hostile 1-byte "signature" parses as a truncated anchor and fails
// closed, identically for every verifier).
constexpr std::uint8_t kAnchorMarker = 0x01;

void encode_anchor(wire::Writer& w, const std::optional<Checkpoint>& anchor) {
  if (!anchor) return;
  w.u8(kAnchorMarker);
  encode_checkpoint(w, *anchor);
}

std::optional<Checkpoint> decode_anchor(wire::Reader& r) {
  if (r.done() || r.peek_u8() != kAnchorMarker) return std::nullopt;
  r.u8();
  return decode_checkpoint(r);
}

/// Chooses the proof form for a prover's history: the plain minimal suffix
/// when the retained history still reconstructs the peerset from ∅ (the
/// historical bytes), or the checkpoint-anchored form — sealed checkpoint
/// plus only the unsealed tail — when trimming degraded the plain proof.
struct HistoryProof {
  std::vector<HistoryEntry> suffix;
  std::optional<Checkpoint> anchor;
};

HistoryProof make_history_proof(const NodeState& state) {
  HistoryProof proof;
  const auto& h = state.history();
  const std::size_t k = h.minimal_suffix_length(state.peerset());
  if (state.checkpoint() && k > h.size()) {
    proof.anchor = state.checkpoint();
    proof.suffix = h.entries_from(
        proof.anchor->sealed_count,
        static_cast<std::size_t>(h.total_appended() - proof.anchor->sealed_count));
  } else {
    proof.suffix = h.suffix(k);  // proof_suffix() without a second search
  }
  return proof;
}

}  // namespace

Bytes ShuffleOffer::encode_core() const {
  wire::Writer w;
  encode_peer(w, initiator);
  w.u64(initiator_round);
  w.bytes(initiator_round_sig);
  w.u64(responder_round);
  encode_peer_list(w, sample);
  encode_bytes_list(w, partner_proofs);
  encode_bytes_list(w, sample_proofs);
  encode_peer_list(w, claimed_peerset);
  encode_entries(w, history_suffix);
  encode_anchor(w, anchor);
  return std::move(w).take();
}

Bytes ShuffleOffer::encode() const {
  Bytes out = encode_core();
  if (!body_sig.empty()) {
    wire::Writer w;
    w.raw(out);
    w.bytes(body_sig);
    out = std::move(w).take();
  }
  return out;
}

ShuffleOffer ShuffleOffer::decode(BytesView data) {
  wire::Reader r(data);
  ShuffleOffer o;
  o.initiator = decode_peer(r);
  o.initiator_round = r.u64();
  o.initiator_round_sig = r.bytes();
  o.responder_round = r.u64();
  o.sample = decode_peer_list(r);
  o.partner_proofs = decode_bytes_list(r);
  o.sample_proofs = decode_bytes_list(r);
  o.claimed_peerset = decode_peer_list(r);
  o.history_suffix = decode_entries(r);
  o.anchor = decode_anchor(r);
  if (!r.done()) {
    // Optional trailing field; an encoder never emits an empty one, so a
    // zero-length signature here is padding, not a message — fail closed.
    o.body_sig = r.bytes();
    if (o.body_sig.empty()) throw wire::DecodeError("empty offer body_sig");
  }
  r.expect_done();
  return o;
}

Bytes ShuffleResponse::encode_core() const {
  wire::Writer w;
  encode_peer(w, responder);
  w.u64(responder_round);
  w.bytes(responder_round_sig);
  encode_peer_list(w, sample);
  encode_bytes_list(w, sample_proofs);
  encode_peer_list(w, claimed_peerset);
  encode_entries(w, history_suffix);
  encode_anchor(w, anchor);
  return std::move(w).take();
}

Bytes ShuffleResponse::encode() const {
  Bytes out = encode_core();
  if (!body_sig.empty()) {
    wire::Writer w;
    w.raw(out);
    w.bytes(body_sig);
    out = std::move(w).take();
  }
  return out;
}

ShuffleResponse ShuffleResponse::decode(BytesView data) {
  wire::Reader r(data);
  ShuffleResponse resp;
  resp.responder = decode_peer(r);
  resp.responder_round = r.u64();
  resp.responder_round_sig = r.bytes();
  resp.sample = decode_peer_list(r);
  resp.sample_proofs = decode_bytes_list(r);
  resp.claimed_peerset = decode_peer_list(r);
  resp.history_suffix = decode_entries(r);
  resp.anchor = decode_anchor(r);
  if (!r.done()) {
    resp.body_sig = r.bytes();
    if (resp.body_sig.empty()) throw wire::DecodeError("empty response body_sig");
  }
  r.expect_done();
  return resp;
}

std::optional<PartnerChoice> choose_partner(const NodeState& state) {
  if (state.peerset().empty()) return std::nullopt;
  const Bytes nonce = round_nonce(state.round());
  const auto& sb = sampler_backend(state.config().sampler);
  const auto draw = sb.draw_one(state.signer(), state.peerset(), kPartnerDomain, nonce);
  if (!draw) return std::nullopt;
  return PartnerChoice{draw->sample.front(), draw->proofs};
}

ShuffleOffer make_offer(const NodeState& state, const PartnerChoice& partner,
                        Round responder_round) {
  ShuffleOffer offer;
  offer.initiator = state.self();
  offer.initiator_round = state.round();
  offer.initiator_round_sig = state.sign_current_round();
  offer.responder_round = responder_round;

  const Peerset candidates = state.peerset().minus({partner.partner});
  const std::size_t want = state.config().shuffle_length - 1;  // L-1; v_i added implicitly
  Draw draw = sampler_backend(state.config().sampler)
                  .draw(state.signer(), candidates, want, kSampleDomain,
                        round_nonce(responder_round));
  offer.sample = std::move(draw.sample);
  offer.sample_proofs = std::move(draw.proofs);
  offer.partner_proofs = partner.proofs;
  offer.claimed_peerset = state.peerset().sorted();
  HistoryProof proof = make_history_proof(state);
  offer.history_suffix = std::move(proof.suffix);
  offer.anchor = std::move(proof.anchor);
  return offer;
}

namespace {

// The verifiers shared by the offer/response check templates below: plain
// provider calls, and the VerificationEngine, which is that same provider
// plus the verify.history.full count. Both run the same checks in the same
// order, so the verdicts are bit-identical by construction.

struct ProviderVerifier {
  const crypto::CryptoProvider& p;
  const SamplerBackend& sb;

  const crypto::CryptoProvider& provider() const { return p; }
  VerifyResult history(const std::vector<HistoryEntry>& suffix, const PeerId& owner,
                       const Peerset& claimed) const {
    return verify_history_suffix(suffix, owner, claimed, p);
  }
  VerifyResult anchored(const Checkpoint& ck, const std::vector<HistoryEntry>& suffix,
                        const PeerId& owner, const Peerset& claimed) const {
    return verify_history_suffix_anchored(ck, suffix, owner, claimed, p);
  }
  VerifyResult one(const crypto::PublicKeyBytes& pk, const Peerset& candidates,
                   std::string_view domain, BytesView nonce,
                   const std::vector<Bytes>& proofs, const PeerId& claimed) const {
    return sb.verify_one(p, pk, candidates, domain, nonce, proofs, claimed);
  }
  VerifyResult sample(const crypto::PublicKeyBytes& pk, const Peerset& candidates,
                      std::size_t want, std::string_view domain, BytesView nonce,
                      const std::vector<Bytes>& proofs,
                      const std::vector<PeerId>& claimed) const {
    return sb.verify(p, pk, candidates, want, domain, nonce, proofs, claimed);
  }
};

struct EngineVerifier : ProviderVerifier {
  EngineVerifier(const VerificationEngine& engine, const SamplerBackend& sampler)
      : ProviderVerifier{engine, sampler}, e(engine) {}

  VerifyResult history(const std::vector<HistoryEntry>& suffix, const PeerId& owner,
                       const Peerset& claimed) const {
    return e.verify_history(suffix, owner, claimed);
  }

  const VerificationEngine& e;
};

template <typename Verifier>
VerifyResult verify_offer_static_impl(const ShuffleOffer& offer, const PeerId& responder,
                                      std::size_t shuffle_length, const Verifier& v) {
  if (offer.initiator == responder) {
    return VerifyResult::fail(VerifyError::kSelfShuffle);
  }
  // σ_i(r_i): the acknowledgement the responder will embed in its entry.
  if (!v.provider().verify(offer.initiator.key,
                           shuffle_nonce_payload(offer.initiator_round),
                           offer.initiator_round_sig)) {
    return VerifyResult::fail(VerifyError::kInvalidInitiatorRoundSignature);
  }
  // Reconstruct and check the initiator's claimed peerset.
  const Peerset claimed(offer.claimed_peerset);
  if (claimed.size() != offer.claimed_peerset.size()) {
    return VerifyResult::fail(VerifyError::kDuplicatePeersetClaim);
  }
  if (claimed.size() > 100000) return VerifyResult::fail(VerifyError::kPeersetTooLarge);
  if (const auto h = offer.anchor
                         ? v.anchored(*offer.anchor, offer.history_suffix,
                                      offer.initiator, claimed)
                         : v.history(offer.history_suffix, offer.initiator, claimed);
      !h) {
    return h;
  }
  // Rounds may be burned without entries (aborted shuffles), so the suffix
  // need not end exactly at r_i - 1, but it can never reach r_i. An anchor's
  // sealed tail round is bounded the same way (an anchored empty suffix would
  // otherwise claim a peerset from a round at or past the offered one).
  if (!offer.history_suffix.empty() &&
      offer.history_suffix.back().self_round >= offer.initiator_round) {
    return VerifyResult::fail(VerifyError::kHistoryBeyondOfferedRound);
  }
  if (offer.anchor && offer.anchor->last_round >= offer.initiator_round) {
    return VerifyResult::fail(VerifyError::kHistoryBeyondOfferedRound);
  }
  // The responder must be the VRF-dictated partner for the initiator's round.
  if (!claimed.contains(responder)) {
    return VerifyResult::fail(VerifyError::kResponderNotInPeerset);
  }
  if (const auto p = v.one(offer.initiator.key, claimed, kPartnerDomain,
                           round_nonce(offer.initiator_round), offer.partner_proofs,
                           responder);
      !p) {
    return VerifyResult::fail(VerifyError::kPartnerSelectionMismatch, p.reason);
  }
  // The sample A must be the VRF draw over N_i - {v_j} seeded by the
  // responder's round (echoed in the offer).
  const Peerset candidates = claimed.minus({responder});
  const std::size_t want = shuffle_length - 1;
  if (const auto s = v.sample(offer.initiator.key, candidates, want, kSampleDomain,
                              round_nonce(offer.responder_round), offer.sample_proofs,
                              offer.sample);
      !s) {
    return VerifyResult::fail(VerifyError::kOfferSampleMismatch, s.reason);
  }
  return VerifyResult::pass();
}

}  // namespace

VerifyResult verify_offer_static(const ShuffleOffer& offer, const PeerId& responder,
                                 const NodeConfig& protocol,
                                 const crypto::CryptoProvider& provider) {
  return verify_offer_static_impl(
      offer, responder, protocol.shuffle_length,
      ProviderVerifier{provider, sampler_backend(protocol.sampler)});
}

VerifyResult verify_offer_static(const ShuffleOffer& offer, const PeerId& responder,
                                 const NodeConfig& protocol, VerificationEngine& engine) {
  return verify_offer_static_impl(
      offer, responder, protocol.shuffle_length,
      EngineVerifier{engine, sampler_backend(protocol.sampler)});
}

VerifyResult verify_offer(const ShuffleOffer& offer, const NodeState& state,
                          Round expected_round, const crypto::CryptoProvider& provider) {
  if (offer.responder_round != expected_round) {
    return VerifyResult::fail(VerifyError::kStaleRoundNonce);
  }
  return verify_offer_static(offer, state.self(), state.config(), provider);
}

VerifyResult verify_offer(const ShuffleOffer& offer, const NodeState& state,
                          Round expected_round, VerificationEngine& engine) {
  if (offer.responder_round != expected_round) {
    return VerifyResult::fail(VerifyError::kStaleRoundNonce);
  }
  return verify_offer_static(offer, state.self(), state.config(), engine);
}

void apply_update(NodeState& state, const PeerId& counterpart, Round counterpart_round,
                  Bytes counterpart_sig, bool initiated, const std::vector<PeerId>& removed,
                  const std::vector<PeerId>& received) {
  Peerset next = state.peerset().minus(removed);

  HistoryEntry e;
  e.kind = EntryKind::kShuffle;
  e.self_round = state.round();
  e.counterpart = counterpart;
  e.nonce = counterpart_round;
  e.signature = std::move(counterpart_sig);
  e.initiated = initiated;

  // `out` records what was actually removed (always = removed for honest
  // callers since samples are subsets of the peerset).
  for (const auto& p : removed) {
    if (state.peerset().contains(p)) e.out.push_back(p);
  }

  // Add received peers (in draw order) up to capacity, skipping self/dupes.
  for (const auto& p : received) {
    if (p == state.self()) continue;
    if (next.size() >= state.config().max_peerset) break;
    if (next.insert(p)) e.in.push_back(p);
  }

  // Refill from the outgoing set (sorted => deterministic and verifiable).
  if (next.size() < state.config().max_peerset) {
    std::vector<PeerId> refill_candidates = e.out;
    std::sort(refill_candidates.begin(), refill_candidates.end());
    for (const auto& p : refill_candidates) {
      if (next.size() >= state.config().max_peerset) break;
      if (next.insert(p)) e.fill.push_back(p);
    }
  }

  state.commit_shuffle(std::move(e), std::move(next));
}

ShuffleResponse make_response_and_commit(NodeState& state, const ShuffleOffer& offer) {
  ShuffleResponse resp;
  resp.responder = state.self();
  resp.responder_round = state.round();
  resp.responder_round_sig = state.sign_current_round();
  resp.claimed_peerset = state.peerset().sorted();
  HistoryProof proof = make_history_proof(state);
  resp.history_suffix = std::move(proof.suffix);
  resp.anchor = std::move(proof.anchor);

  // B: L peers drawn from N_j - {v_i}, seeded by the initiator's round.
  const Peerset candidates = state.peerset().minus({offer.initiator});
  Draw draw = sampler_backend(state.config().sampler)
                  .draw(state.signer(), candidates, state.config().shuffle_length,
                        kSampleDomain, round_nonce(offer.initiator_round));
  resp.sample = std::move(draw.sample);
  resp.sample_proofs = std::move(draw.proofs);

  // Commit the responder-side update: remove B, add A ∪ {v_i}.
  std::vector<PeerId> received = offer.sample;
  received.push_back(offer.initiator);
  apply_update(state, offer.initiator, offer.initiator_round, offer.initiator_round_sig,
               /*initiated=*/false, resp.sample, received);
  return resp;
}

namespace {

template <typename Verifier>
VerifyResult verify_response_static_impl(const ShuffleResponse& response,
                                         const ShuffleOffer& sent_offer,
                                         const PeerId& initiator,
                                         std::size_t shuffle_length, const Verifier& v) {
  if (response.responder_round != sent_offer.responder_round) {
    return VerifyResult::fail(VerifyError::kResponderRoundChanged);
  }
  if (response.responder == initiator) {
    return VerifyResult::fail(VerifyError::kSelfShuffle);
  }
  if (!v.provider().verify(response.responder.key,
                           shuffle_nonce_payload(response.responder_round),
                           response.responder_round_sig)) {
    return VerifyResult::fail(VerifyError::kInvalidResponderRoundSignature);
  }
  const Peerset claimed(response.claimed_peerset);
  if (claimed.size() != response.claimed_peerset.size()) {
    return VerifyResult::fail(VerifyError::kDuplicatePeersetClaim);
  }
  if (const auto h = response.anchor
                         ? v.anchored(*response.anchor, response.history_suffix,
                                      response.responder, claimed)
                         : v.history(response.history_suffix, response.responder, claimed);
      !h) {
    return h;
  }
  if (!response.history_suffix.empty() &&
      response.history_suffix.back().self_round >= response.responder_round) {
    return VerifyResult::fail(VerifyError::kHistoryBeyondResponderRound);
  }
  if (response.anchor && response.anchor->last_round >= response.responder_round) {
    return VerifyResult::fail(VerifyError::kHistoryBeyondResponderRound);
  }
  const Peerset candidates = claimed.minus({initiator});
  if (const auto s = v.sample(response.responder.key, candidates, shuffle_length,
                              kSampleDomain, round_nonce(sent_offer.initiator_round),
                              response.sample_proofs, response.sample);
      !s) {
    return VerifyResult::fail(VerifyError::kResponseSampleMismatch, s.reason);
  }
  return VerifyResult::pass();
}

}  // namespace

VerifyResult verify_response_static(const ShuffleResponse& response,
                                    const ShuffleOffer& sent_offer,
                                    const PeerId& initiator, const NodeConfig& protocol,
                                    const crypto::CryptoProvider& provider) {
  return verify_response_static_impl(
      response, sent_offer, initiator, protocol.shuffle_length,
      ProviderVerifier{provider, sampler_backend(protocol.sampler)});
}

VerifyResult verify_response_static(const ShuffleResponse& response,
                                    const ShuffleOffer& sent_offer,
                                    const PeerId& initiator, const NodeConfig& protocol,
                                    VerificationEngine& engine) {
  return verify_response_static_impl(
      response, sent_offer, initiator, protocol.shuffle_length,
      EngineVerifier{engine, sampler_backend(protocol.sampler)});
}

VerifyResult verify_response(const ShuffleResponse& response, const NodeState& state,
                             const ShuffleOffer& sent_offer,
                             const crypto::CryptoProvider& provider) {
  return verify_response_static(response, sent_offer, state.self(), state.config(),
                                provider);
}

VerifyResult verify_response(const ShuffleResponse& response, const NodeState& state,
                             const ShuffleOffer& sent_offer, VerificationEngine& engine) {
  return verify_response_static(response, sent_offer, state.self(), state.config(),
                                engine);
}

Bytes offer_body_payload(BytesView offer_core, const PeerId& responder) {
  const auto digest = crypto::Sha256::hash(offer_core);
  wire::Writer w;
  w.str("an.offer");
  w.str(responder.addr);
  w.raw(BytesView(responder.key.data(), responder.key.size()));
  w.raw(BytesView(digest.data(), digest.size()));
  return std::move(w).take();
}

Bytes response_body_payload(BytesView offer_wire, BytesView response_core) {
  const auto offer_digest = crypto::Sha256::hash(offer_wire);
  const auto resp_digest = crypto::Sha256::hash(response_core);
  wire::Writer w;
  w.str("an.response");
  w.raw(BytesView(offer_digest.data(), offer_digest.size()));
  w.raw(BytesView(resp_digest.data(), resp_digest.size()));
  return std::move(w).take();
}

VerifyError check_offer_body_sig(const ShuffleOffer& offer, const PeerId& responder,
                                 const crypto::CryptoProvider& provider) {
  if (offer.body_sig.empty()) return VerifyError::kMissingBodySignature;
  if (!provider.verify(offer.initiator.key,
                       offer_body_payload(offer.encode_core(), responder),
                       offer.body_sig)) {
    return VerifyError::kInvalidBodySignature;
  }
  return VerifyError::kNone;
}

VerifyError check_response_body_sig(const ShuffleResponse& response,
                                    BytesView offer_wire,
                                    const crypto::CryptoProvider& provider) {
  if (response.body_sig.empty()) return VerifyError::kMissingBodySignature;
  if (!provider.verify(response.responder.key,
                       response_body_payload(offer_wire, response.encode_core()),
                       response.body_sig)) {
    return VerifyError::kInvalidBodySignature;
  }
  return VerifyError::kNone;
}

void apply_offer_outcome(NodeState& state, const ShuffleOffer& sent_offer,
                         const ShuffleResponse& response) {
  // Initiator removes A ∪ {v_j} and adds B.
  std::vector<PeerId> removed = sent_offer.sample;
  removed.push_back(response.responder);
  apply_update(state, response.responder, response.responder_round,
               response.responder_round_sig, /*initiated=*/true, removed,
               response.sample);
}

}  // namespace accountnet::core
