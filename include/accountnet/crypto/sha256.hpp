// FIPS 180-4 SHA-256. Streaming and one-shot interfaces.
//
// Used by the FastCrypto simulation backend (keyed hashing), the hash-chained
// histories and the signed body digests; the Ed25519/VRF path uses SHA-512
// per RFC 8032 / RFC 9381.
//
// The compression function runs on the x86 SHA extensions when CPUID reports
// them (SHA, SSSE3 and SSE4.1) and on portable C++ rounds everywhere else.
// The choice is made once per process from CPUID alone; both paths produce
// the same bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  void update(BytesView data);
  Digest finish();  ///< Finalizes; the object must not be reused afterwards.

  static Digest hash(BytesView data);

  /// Name of the compression this process runs: "sha-ni" or "portable".
  static const char* implementation();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

namespace detail {

/// Advances `state` over `n` consecutive 64-byte blocks at `blocks` (any
/// alignment). Sha256 calls exactly one of these; both are declared here so
/// tests can check each against the FIPS vectors and against each other.
using Sha256Compress = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                                std::size_t n);

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                              std::size_t n);

/// The SHA-extension compression, or nullptr when this CPU (or target
/// architecture) lacks SHA, SSSE3 or SSE4.1.
Sha256Compress sha256_compress_hw();

}  // namespace detail

}  // namespace accountnet::crypto
