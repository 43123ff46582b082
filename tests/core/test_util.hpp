// Shared helpers for core-protocol tests: node construction and a
// synchronous execution of the full shuffle exchange.
#pragma once

#include <memory>
#include <string>

#include "accountnet/core/shuffle.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::core::testing {

inline Bytes seed_from_name(const std::string& name) {
  Bytes seed(32, 0);
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  Rng rng(h);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

inline std::unique_ptr<NodeState> make_node(const std::string& addr,
                                            const crypto::CryptoProvider& provider,
                                            NodeConfig config = {}) {
  auto signer = provider.make_signer(seed_from_name(addr));
  PeerId id{addr, signer->public_key()};
  return std::make_unique<NodeState>(id, std::move(signer), config);
}

/// Runs one complete verified shuffle initiated by `a` toward the partner its
/// VRF dictates (which must be `b`); commits on both sides.
/// Returns the failure reason ("" on success).
inline std::string run_shuffle(NodeState& a, NodeState& b,
                               const crypto::CryptoProvider& provider) {
  const auto choice = choose_partner(a);
  if (!choice) return "initiator has empty peerset";
  if (!(choice->partner == b.self())) return "VRF chose a different partner";
  const auto offer = make_offer(a, *choice, b.round());
  if (const auto v = verify_offer(offer, b, b.round(), provider); !v) return v.reason;
  const auto response = make_response_and_commit(b, offer);
  if (const auto v = verify_response(response, a, offer, provider); !v) return v.reason;
  apply_offer_outcome(a, offer, response);
  return "";
}

/// Runs a shuffle from `a` to whichever partner the VRF selects among
/// `nodes`; returns the failure reason ("" on success).
template <typename NodeMap>
inline std::string run_shuffle_any(NodeState& a, NodeMap& nodes,
                                   const crypto::CryptoProvider& provider) {
  const auto choice = choose_partner(a);
  if (!choice) return "initiator has empty peerset";
  const auto it = nodes.find(choice->partner.addr);
  if (it == nodes.end()) return "partner not running";
  return run_shuffle(a, *it->second, provider);
}

/// Copying reference for the minimal proof length: the smallest k whose
/// copied suffix replays from ∅ to `current`, or size() + 1 if none does.
inline std::size_t reference_minimal_suffix(const UpdateHistory& h,
                                            const Peerset& current) {
  for (std::size_t k = 0; k <= h.size(); ++k) {
    if (UpdateHistory::reconstruct(h.suffix(k)) == current) return k;
  }
  return h.size() + 1;
}

/// The proof make_history_proof() must build, derived by copying: the
/// reference minimal suffix; when none reconstructs, the unsealed tail
/// anchored on the checkpoint, else the whole retained window.
inline HistoryProof reference_proof(const NodeState& state) {
  const UpdateHistory& h = state.history();
  const std::size_t k = reference_minimal_suffix(h, state.peerset());
  HistoryProof proof;
  if (k <= h.size()) {
    proof.suffix = h.suffix(k);
  } else if (state.checkpoint()) {
    proof.anchor = state.checkpoint();
    proof.suffix = h.suffix(
        static_cast<std::size_t>(h.total_appended() - state.checkpoint()->sealed_count));
  } else {
    proof.suffix = h.suffix(h.size());
  }
  return proof;
}

}  // namespace accountnet::core::testing
