// Verifiable peer shuffling (Sec. IV-A, Algorithms 1-3).
//
// The exchange is split into pure functions over NodeState so the same code
// drives both the event-driven node (core/node.hpp) and the synchronous
// simulation harness:
//
//   initiator                                 responder
//   ---------                                 ---------
//   begin_shuffle()      --round query-->
//                        <--round reply--     round + σ_j(r_j)
//   make_offer()         --ShuffleOffer-->    verify_offer()
//                                             make_response()  (commits)
//   verify_response()    <--ShuffleResponse--
//   apply_offer_outcome() (commits)
//
// Partner selection, the initiator sample A, and the responder sample B are
// all verifiable draws (sampler.hpp; the configured SamplerBackend) whose
// proofs travel with the messages; each side re-derives the other's draws
// from the proofs and reconstructs the other's claimed peerset from its
// history suffix (history.hpp) before committing anything. The suffix is
// cut by NodeState::proof_span(), which reads the per-peer insertion indices
// kept at commit instead of walking the history; make_history_proof() is the
// one builder that copies it.
#pragma once

#include <optional>

#include "accountnet/core/node_state.hpp"
#include "accountnet/core/select.hpp"

namespace accountnet::core {

class VerificationEngine;

/// Draw domains (bound into every VRF alpha).
inline constexpr std::string_view kPartnerDomain = "an.partner";
inline constexpr std::string_view kSampleDomain = "an.sample";

struct ShuffleOffer {
  PeerId initiator;
  Round initiator_round = 0;         ///< r_i
  Bytes initiator_round_sig;         ///< σ_i(r_i)
  Round responder_round = 0;         ///< r_j — the nonce the responder handed out
  std::vector<PeerId> sample;        ///< A (L-1 peers; v_i travels implicitly)
  std::vector<Bytes> partner_proofs; ///< VRF attempts selecting the responder
  std::vector<Bytes> sample_proofs;  ///< VRF attempts drawing A
  std::vector<PeerId> claimed_peerset;     ///< N_i[r_i]
  std::vector<HistoryEntry> history_suffix;  ///< proves claimed_peerset
  /// Checkpoint anchor (checkpoint.hpp): when set, history_suffix holds only
  /// post-checkpoint entries and the verifier replays them from the sealed
  /// peerset — used when trimming left the retained history too short for a
  /// from-∅ proof. Part of encode_core(), so the body signature covers it.
  std::optional<Checkpoint> anchor;
  Bytes body_sig;  ///< accountability mode: σ_i over offer_body_payload(...)

  Bytes encode() const;        ///< core fields + body_sig iff non-empty
  Bytes encode_core() const;   ///< core fields only (the signed portion)
  static ShuffleOffer decode(BytesView data);
};

struct ShuffleResponse {
  PeerId responder;
  Round responder_round = 0;  ///< r_j
  Bytes responder_round_sig;  ///< σ_j(r_j)
  std::vector<PeerId> sample; ///< B (L peers)
  std::vector<Bytes> sample_proofs;
  std::vector<PeerId> claimed_peerset;       ///< N_j[r_j]
  std::vector<HistoryEntry> history_suffix;  ///< proves claimed_peerset
  std::optional<Checkpoint> anchor;  ///< See ShuffleOffer::anchor.
  Bytes body_sig;  ///< accountability mode: σ_j over response_body_payload(...)

  Bytes encode() const;        ///< core fields + body_sig iff non-empty
  Bytes encode_core() const;   ///< core fields only (the signed portion)
  static ShuffleResponse decode(BytesView data);
};

/// A prover's history proof: the entries NodeState::proof_span() names,
/// copied, plus the sealed checkpoint they replay from when the span is
/// anchored (see ShuffleOffer::anchor).
struct HistoryProof {
  std::vector<HistoryEntry> suffix;
  std::optional<Checkpoint> anchor;
};
HistoryProof make_history_proof(const NodeState& state);

/// Whether make_offer()/make_response_and_commit() copy the history proof
/// into the message. kOmit leaves history_suffix empty and anchor unset: for
/// a driver that knows no verifier will read the message (the harness's
/// unverified exchanges); proof_span() still gives the proof's length.
enum class ProofMode : bool { kOmit, kBuild };

/// Step 1 (initiator): VRF-select the shuffle partner from the current
/// peerset. nullopt if the peerset is empty (nothing to shuffle).
struct PartnerChoice {
  PeerId partner;
  std::vector<Bytes> proofs;
};
std::optional<PartnerChoice> choose_partner(const NodeState& state);

/// Step 2 (initiator): build the offer after learning (r_j, σ_j(r_j)).
ShuffleOffer make_offer(const NodeState& state, const PartnerChoice& partner,
                        Round responder_round, ProofMode proof_mode = ProofMode::kBuild);

/// Step 3 (responder): full verification of an incoming offer.
/// `expected_round` is the round number this node handed to the initiator.
VerifyResult verify_offer(const ShuffleOffer& offer, const NodeState& state,
                          Round expected_round, const crypto::CryptoProvider& provider);

/// Engine-backed overload: the same checks in the same order, with the
/// engine as the provider; the engine also counts each history replay
/// (core/verification_engine.hpp). Both overloads share one implementation.
VerifyResult verify_offer(const ShuffleOffer& offer, const NodeState& state,
                          Round expected_round, VerificationEngine& engine);

/// Step 4 (responder): draw B, COMMIT the responder-side update (Algorithm 3)
/// and return the response to send back.
ShuffleResponse make_response_and_commit(NodeState& state, const ShuffleOffer& offer,
                                         ProofMode proof_mode = ProofMode::kBuild);

/// Step 5 (initiator): verify the response against the offer we sent.
VerifyResult verify_response(const ShuffleResponse& response, const NodeState& state,
                             const ShuffleOffer& sent_offer,
                             const crypto::CryptoProvider& provider);

/// Engine-backed overload (see verify_offer above).
VerifyResult verify_response(const ShuffleResponse& response, const NodeState& state,
                             const ShuffleOffer& sent_offer, VerificationEngine& engine);

/// Step 6 (initiator): commit the initiator-side update (Algorithm 3).
void apply_offer_outcome(NodeState& state, const ShuffleOffer& sent_offer,
                         const ShuffleResponse& response);

// Accountability-mode message binding. In accountability mode each side also
// signs the full message body, bound to the counterpart it addressed: the
// message then doubles as transferable evidence — any third party can check
// "node X sent exactly these bytes to node Y" without trusting the reporter.

/// Signed by the initiator over its offer: binds the addressed responder's
/// full identity (address AND key), so an offer cannot be re-targeted or
/// replayed against a forged keypair at the same address.
Bytes offer_body_payload(BytesView offer_core, const PeerId& responder);

/// Signed by the responder over its response: binds the exact offer wire
/// bytes it is answering, so the (offer, response) pair verifies as a unit.
Bytes response_body_payload(BytesView offer_wire, BytesView response_core);

// Stateless halves of offer/response verification: every check that depends
// only on message contents plus the verifier's identity and the protocol
// parameters (L and the sampler backend). Separated from the stateful
// wrappers so verify_accusation() can re-run them — an honest node's
// messages always pass, so a *body-signed* message failing a static check is
// transferable proof of cheating.

/// All verify_offer() checks except the stale-round-nonce comparison.
/// `responder` is the node the offer addressed; `protocol` supplies L and
/// the SamplerBackend the draws must replay under.
VerifyResult verify_offer_static(const ShuffleOffer& offer, const PeerId& responder,
                                 const NodeConfig& protocol,
                                 const crypto::CryptoProvider& provider);

/// Engine-backed overload (see verify_offer above).
VerifyResult verify_offer_static(const ShuffleOffer& offer, const PeerId& responder,
                                 const NodeConfig& protocol, VerificationEngine& engine);

/// All verify_response() checks; `initiator` is the node that sent the offer.
VerifyResult verify_response_static(const ShuffleResponse& response,
                                    const ShuffleOffer& sent_offer,
                                    const PeerId& initiator, const NodeConfig& protocol,
                                    const crypto::CryptoProvider& provider);

/// Engine-backed overload (see verify_offer above).
VerifyResult verify_response_static(const ShuffleResponse& response,
                                    const ShuffleOffer& sent_offer,
                                    const PeerId& initiator, const NodeConfig& protocol,
                                    VerificationEngine& engine);

/// Checks `body_sig` (offer addressed to `responder`). kNone on success.
VerifyError check_offer_body_sig(const ShuffleOffer& offer, const PeerId& responder,
                                 const crypto::CryptoProvider& provider);

/// Checks `body_sig` (response answering exactly `offer_wire`).
VerifyError check_response_body_sig(const ShuffleResponse& response,
                                    BytesView offer_wire,
                                    const crypto::CryptoProvider& provider);

/// Algorithm 3 core, shared by both sides: removes `removed`, adds `received`
/// (capacity- and self-aware), refills from `removed` if space remains, and
/// commits the history entry. Exposed for tests.
void apply_update(NodeState& state, const PeerId& counterpart, Round counterpart_round,
                  Bytes counterpart_sig, bool initiated, const std::vector<PeerId>& removed,
                  const std::vector<PeerId>& received);

}  // namespace accountnet::core
