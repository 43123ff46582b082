// VerificationEngine: the per-node front end of every proof check.
//
// The paper re-verifies a counterpart's entire retained history suffix on
// every exchange — reconstruction plus one signature/VRF check per entry —
// which `bench/abl_verification_cost` shows dominates protocol cost. The
// engine adds no check and skips none: it is a counting
// crypto::CryptoProvider decorator, and its history call forwards to the pure
// function (core/history) with the engine itself as the provider; anchored
// suffixes go to verify_history_suffix_anchored (core/checkpoint) with the
// engine as the provider, uncounted by verify.history.full. Sample and
// witness draws are checked by SamplerBackend::verify with the engine passed
// as the provider. Every check therefore runs once, in the sequential order
// the pure verifiers define, through plain verify()/vrf_verify() calls: the
// code an honest verifier runs is the code a third party re-runs on an
// accusation.
//
// The engine keeps no state between calls, only its counters: a verdict is
// a function of the call's arguments alone, so no quarantine, eviction or
// leave has anything to invalidate. Verdict caches and per-partner history
// memos were measured and removed: under FastCrypto, hashing a check into a
// cache key cost more than the check, and the hit rates were 0 (VRF: every
// alpha carries a fresh nonce), 0.0003–0.16 (signatures) and about 0.08
// (history suffixes). Batched resolution (CryptoProvider::verify_batch,
// with the real backend fanning jobs across threads of its own) was removed
// too: it kept a second implementation of every check in step with the
// first, and spawned threads beside util::WorkerPool.
//
// One engine serves each verifying node (core::Node, harness HarnessNode)
// so its counters are per node.
//
// Not thread-safe (the counters are plain integers): one engine is used by
// one thread at a time (the harness's wave drive hands each responder's
// engine to a single pool worker per wave).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "accountnet/core/history.hpp"
#include "accountnet/core/peerset.hpp"
#include "accountnet/core/types.hpp"
#include "accountnet/core/verify.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/obs/metrics.hpp"

namespace accountnet::core {

class VerificationEngine final : public crypto::CryptoProvider {
 public:
  struct Config {
    /// Unread. The engine keeps no verdict caches or history memos; the
    /// fields stay so that configurations written against the cached engine
    /// (the performance ledger's) still compile.
    std::size_t sig_cache_capacity = 4096;
    std::size_t vrf_cache_capacity = 4096;
    std::size_t history_memo_capacity = 256;
  };

  /// Monotonic engine-lifetime counters (history_full is also mirrored to
  /// obs metrics when a registry is attached). Every check reaches the inner
  /// provider, so sig_misses/vrf_misses count every signature/VRF check.
  /// sig_hits, vrf_hits, history_exact, history_extended, batch_calls and
  /// batch_jobs stay 0; they remain only because the performance ledger
  /// reads them.
  struct Stats {
    std::uint64_t sig_hits = 0;
    std::uint64_t sig_misses = 0;
    std::uint64_t vrf_hits = 0;
    std::uint64_t vrf_misses = 0;
    std::uint64_t history_exact = 0;
    std::uint64_t history_extended = 0;
    std::uint64_t history_full = 0;  ///< history suffixes replayed
    std::uint64_t batch_calls = 0;
    std::uint64_t batch_jobs = 0;
  };

  /// `inner` must outlive the engine. `registry` is optional; when given,
  /// the verify.history.full counter is kept current.
  explicit VerificationEngine(const crypto::CryptoProvider& inner);
  VerificationEngine(const crypto::CryptoProvider& inner, Config config,
                     obs::MetricsRegistry* registry = nullptr);

  // --- crypto::CryptoProvider (counting decorator) -------------------------

  std::unique_ptr<crypto::Signer> make_signer(BytesView seed32) const override;
  bool verify(const crypto::PublicKeyBytes& pk, BytesView msg,
              BytesView sig) const override;
  std::optional<std::array<std::uint8_t, 64>> vrf_verify(
      const crypto::PublicKeyBytes& pk, BytesView alpha,
      BytesView proof) const override;
  const char* name() const override;

  // --- History verification ------------------------------------------------

  /// verify_history_suffix() through this engine; counts verify.history.full.
  VerifyResult verify_history(const std::vector<HistoryEntry>& suffix,
                              const PeerId& owner, const Peerset& claimed) const;

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  const crypto::CryptoProvider& inner() const { return inner_; }

 private:
  const crypto::CryptoProvider& inner_;
  Config config_;
  obs::MetricsRegistry* registry_;
  // mutable: the CryptoProvider interface is const, and the counters are
  // observable only through stats/metrics, never through verdicts.
  mutable Stats stats_;
  obs::MetricId history_full_id_ = 0;
};

}  // namespace accountnet::core
