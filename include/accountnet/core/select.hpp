// Verifiable random selection (Algorithms 1/2 machinery).
//
// select_index implements Algorithm 2: with Q = ceil(log2 |X|), the low Q
// bits of the VRF output index the sorted list; an index >= |X| means Null
// and the caller retries with the next attempt counter. Because the VRF is
// deterministic and proof-carrying, a counterpart can replay the entire
// attempt sequence from the proofs and detect any biased draw.
//
// draw_sample/verify_sample implement the repeated-draw loop used both for
// shuffle samples (alpha seeded by the counterpart's round number, so the
// prover cannot pre-select) and for witness sampling (alpha seeded by the
// channel nonce agreed by both endpoints). verify_sample is the only replay
// of such a draw: it checks one proof at a time through the provider it is
// given, and core::VerificationEngine reaches it as that provider, so an
// honest verifier and a third party re-checking an accusation run the same
// code.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "accountnet/core/history.hpp"
#include "accountnet/core/peerset.hpp"
#include "accountnet/crypto/provider.hpp"

namespace accountnet::core {

/// Algorithm 2: maps a VRF output to an index into a list of `list_size`
/// sorted elements; nullopt = Null (retry).
std::optional<std::size_t> select_index(std::size_t list_size, BytesView vrf_output);

/// Attempt-sequence inputs. `domain` separates partner selection, shuffle
/// sampling and witness sampling; `nonce` binds the draw to the
/// counterpart-chosen value; `attempt` is the retry counter.
Bytes draw_alpha(std::string_view domain, BytesView nonce, std::uint64_t attempt);

/// Hard cap on VRF attempts per draw loop, identical on prover and verifier.
/// (Null probability is < 1/2 per attempt, so the cap is never reached in
/// practice; it bounds the work a malicious prover can demand.)
constexpr std::uint64_t kMaxDrawAttempts = 512;

struct Draw {
  std::vector<PeerId> sample;  ///< Distinct peers, in draw order.
  std::vector<Bytes> proofs;   ///< One VRF proof per attempt (incl. misses).
};

/// Draws up to `want` distinct peers from `candidates` (sorted) using the
/// prover's VRF stream. Returns fewer than `want` only if the candidate list
/// is smaller or the attempt cap is hit.
Draw draw_sample(const crypto::Signer& signer, const Peerset& candidates,
                 std::size_t want, std::string_view domain, BytesView nonce);

/// Verifier-side mirror of draw_sample: replays the proof stream and checks
/// that `claimed` is exactly the sample the VRF dictates.
VerifyResult verify_sample(const crypto::CryptoProvider& provider,
                           const crypto::PublicKeyBytes& prover_key,
                           const Peerset& candidates, std::size_t want,
                           std::string_view domain, BytesView nonce,
                           const std::vector<Bytes>& proofs,
                           const std::vector<PeerId>& claimed);

/// Draws a single peer (retrying Nulls); used for shuffle-partner selection.
std::optional<Draw> draw_one(const crypto::Signer& signer, const Peerset& candidates,
                             std::string_view domain, BytesView nonce);

/// Verifier-side mirror of draw_one.
VerifyResult verify_one(const crypto::CryptoProvider& provider,
                        const crypto::PublicKeyBytes& prover_key,
                        const Peerset& candidates, std::string_view domain,
                        BytesView nonce, const std::vector<Bytes>& proofs,
                        const PeerId& claimed);

/// Nonce encoders used across the protocol.
Bytes round_nonce(Round r);

}  // namespace accountnet::core
