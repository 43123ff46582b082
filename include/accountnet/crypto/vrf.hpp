// Verifiable random function: ECVRF-EDWARDS25519-SHA512-TAI per RFC 9381.
//
// The paper instantiates vrf_i(·) with Algorand's libsodium ECVRF; we build
// the RFC's try-and-increment ciphersuite (suite 0x03) from scratch on the
// same curve. Properties relied on by AccountNet:
//   * determinism + uniqueness: one valid (beta, pi) per (sk, alpha);
//   * verifiability: anyone holding pk checks pi and recomputes beta;
//   * pseudorandomness: beta is indistinguishable from random without sk.
//
// Proof pi is the 80-byte Gamma(32) || c(16) || s(32) encoding; output beta
// is 64 bytes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

constexpr std::size_t kVrfProofSize = 80;
constexpr std::size_t kVrfOutputSize = 64;

using VrfProof = std::array<std::uint8_t, kVrfProofSize>;
using VrfOutput = std::array<std::uint8_t, kVrfOutputSize>;

// vrf_prove and vrf_output share their first half, H = encode_to_curve(pk,
// alpha) and Gamma = x*H: each thread remembers its last (pk, alpha) and a
// comb table of its H, so a proof and an output of the same input cost one
// evaluation of it, in either order, and Gamma = x*H and V = k*H share one
// precomputation. Only public values are remembered.

/// Computes the proof pi for input alpha under the Ed25519 keypair.
VrfProof vrf_prove(const Ed25519KeyPair& kp, BytesView alpha);

/// The output beta for alpha, equal to vrf_proof_to_hash(vrf_prove(kp,
/// alpha)) but computing only H and Gamma = x*H (no nonce, U, V, c or s).
VrfOutput vrf_output(const Ed25519KeyPair& kp, BytesView alpha);

/// Derives the VRF output beta from a proof (does not verify it).
VrfOutput vrf_proof_to_hash(const VrfProof& proof);

/// Verifies pi against (pk, alpha); returns beta on success. A public key
/// of small order (8*Y = identity) is rejected, per RFC 9381 §5.4.5
/// ECVRF_validate_key. Decodes the key and takes the plain variable-base
/// path.
std::optional<VrfOutput> vrf_verify(BytesView public_key32, BytesView alpha,
                                    BytesView proof80);

/// The same verification against an already decoded key; the result is the
/// same with or without its table.
std::optional<VrfOutput> vrf_verify(const VerifyKey& key, BytesView alpha,
                                    BytesView proof80);

}  // namespace accountnet::crypto
