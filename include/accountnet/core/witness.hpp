// Witness group formation (Sec. V).
//
// Given the producer/consumer neighborhoods N_i^d and N_j^d:
//   * the common nodes N_i^d ∩ N_j^d are excluded on BOTH sides (a node
//     reachable from both would otherwise have double the selection odds —
//     an avenue for pollution attacks);
//   * the endpoints themselves are excluded;
//   * each side draws a quota proportional to its neighborhood size,
//     α_x = |N_x^d| / (|N_i^d| + |N_j^d|), with the same verifiable VRF
//     sampling as peer shuffling, seeded by a channel nonce that binds both
//     endpoints and their current rounds (so neither side can grind it).
#pragma once

#include "accountnet/core/sampler.hpp"
#include "accountnet/core/select.hpp"

namespace accountnet::core {

inline constexpr std::string_view kWitnessDomain = "an.witness";

/// Channel nonce: binds both endpoints and their rounds.
Bytes channel_nonce(const PeerId& producer, Round producer_round,
                    const PeerId& consumer, Round consumer_round);

struct WitnessPlan {
  std::vector<PeerId> candidates_producer;  ///< N_i^d minus common minus endpoints.
  std::vector<PeerId> candidates_consumer;  ///< N_j^d minus common minus endpoints.
  std::vector<PeerId> common;               ///< Excluded common nodes.
  std::size_t quota_producer = 0;
  std::size_t quota_consumer = 0;
  double alpha_producer = 0.0;
  double alpha_consumer = 0.0;
};

/// Computes exclusions and the α-proportional split of `total` witnesses.
/// Quotas are capped by candidate availability (spare capacity moves to the
/// other side when possible).
WitnessPlan plan_witness_group(const std::vector<PeerId>& neighborhood_producer,
                               const std::vector<PeerId>& neighborhood_consumer,
                               const PeerId& producer, const PeerId& consumer,
                               std::size_t total);

/// One side's verifiable witness draw, through the configured sampler.
Draw draw_witnesses(const SamplerBackend& sampler, const crypto::Signer& signer,
                    const std::vector<PeerId>& candidates, std::size_t quota,
                    BytesView nonce);

/// Counterpart verification of a witness draw. `provider` may be a
/// core::VerificationEngine, which counts the checks.
VerifyResult verify_witnesses(const SamplerBackend& sampler,
                              const crypto::CryptoProvider& provider,
                              const crypto::PublicKeyBytes& drawer_key,
                              const std::vector<PeerId>& candidates, std::size_t quota,
                              BytesView nonce, const std::vector<Bytes>& proofs,
                              const std::vector<PeerId>& claimed);

/// Final group: the two draws merged and sorted (they are disjoint by
/// construction since the candidate sets are).
std::vector<PeerId> merge_witnesses(const std::vector<PeerId>& from_producer,
                                    const std::vector<PeerId>& from_consumer);

}  // namespace accountnet::core
