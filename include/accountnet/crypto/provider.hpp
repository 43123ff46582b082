// Pluggable crypto backend for AccountNet.
//
// The protocol code is written against this interface so the same logic runs
// with two instantiations:
//
//   * RealCryptoProvider — Ed25519 signatures + RFC 9381 ECVRF. Used by
//     protocol-correctness tests, the latency case study (Fig. 20), and any
//     deployment-shaped example.
//   * FastCryptoProvider — keyed-SHA-256 stand-ins with the same interface
//     shape and deterministic, uniformly-distributed VRF outputs. It offers
//     ZERO security (anyone can forge), but the large-scale simulation
//     benches only measure graph statistics that depend on the *randomness
//     structure* of shuffling, not on unforgeability; malicious behaviour is
//     modelled explicitly in the harness instead of through forgery attempts.
//
// Both backends are deterministic functions of the node seed, which keeps
// every experiment reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

using PublicKeyBytes = std::array<std::uint8_t, 32>;

/// One check for CryptoProvider::verify_batch() (see there for why it
/// remains). The views alias caller-owned buffers and must stay valid for
/// the call.
struct VerifyJob {
  enum class Kind : std::uint8_t {
    kSignature = 0,  ///< msg = signed message, sig = signature
    kVrf = 1,        ///< msg = VRF input alpha, sig = VRF proof
  };
  Kind kind = Kind::kSignature;
  PublicKeyBytes pk{};
  BytesView msg;
  BytesView sig;
};

/// Result slot for one VerifyJob. For kVrf jobs that verify, `vrf_output`
/// holds beta; otherwise it stays zeroed.
struct VerifyVerdict {
  bool ok = false;
  std::array<std::uint8_t, 64> vrf_output{};
};

/// Per-node secret-key operations.
class Signer {
 public:
  virtual ~Signer() = default;

  virtual const PublicKeyBytes& public_key() const = 0;

  /// Signature over msg (opaque bytes; size depends on the backend).
  virtual Bytes sign(BytesView msg) const = 0;

  /// VRF proof for input alpha.
  virtual Bytes vrf_prove(BytesView alpha) const = 0;

  /// VRF output (beta) for alpha; equals the hash verified from the proof.
  virtual std::array<std::uint8_t, 64> vrf_output(BytesView alpha) const = 0;
};

/// Public-key operations plus signer construction.
class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  /// Deterministically derives a signer from a 32-byte seed.
  virtual std::unique_ptr<Signer> make_signer(BytesView seed32) const = 0;

  virtual bool verify(const PublicKeyBytes& pk, BytesView msg, BytesView sig) const = 0;

  /// Verifies a VRF proof; returns beta on success.
  virtual std::optional<std::array<std::uint8_t, 64>> vrf_verify(
      const PublicKeyBytes& pk, BytesView alpha, BytesView proof) const = 0;

  /// Resolves every job into the matching verdict slot
  /// (`verdicts.size() == jobs.size()`, enforced) by calling verify() or
  /// vrf_verify() on this provider, one job after another. No backend
  /// overrides it and the library never calls it: every check runs through
  /// verify()/vrf_verify(). It stays, with VerifyJob and VerifyVerdict, only
  /// because the performance ledger's metering decorator
  /// (perf_ledger/common.cpp) overrides it.
  virtual void verify_batch(std::span<const VerifyJob> jobs,
                            std::span<VerifyVerdict> verdicts) const;

  virtual const char* name() const = 0;
};

/// Ed25519 + ECVRF backend. It keeps a bounded cache of decoded public keys
/// (at most detail::kKeyCacheCapacity), shared by every thread that
/// verifies through it; a key seen a second time gets a comb table there,
/// which makes its later verifications cheaper. Verdicts never depend on it.
std::unique_ptr<CryptoProvider> make_real_crypto();

/// Keyed-hash simulation backend (no security; see file comment).
std::unique_ptr<CryptoProvider> make_fast_crypto();

namespace detail {

/// The real backend's key cache bound.
inline constexpr std::size_t kKeyCacheCapacity = 256;

/// What a real backend's key cache holds: keys cached now, and comb tables
/// built since the provider was made. All zero for any other provider.
struct KeyCacheStats {
  std::size_t keys = 0;
  std::size_t tables_built = 0;
};
KeyCacheStats key_cache_stats(const CryptoProvider& provider);

}  // namespace detail

}  // namespace accountnet::crypto
