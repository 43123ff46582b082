// VerificationEngine: the shared path for every proof check.
//
// The paper re-verifies a counterpart's entire retained history suffix on
// every exchange — reconstruction plus one signature/VRF check per entry —
// which `bench/abl_verification_cost` shows dominates protocol cost. The
// engine keeps the *verdicts* of the pure verification functions
// (core/history, core/select, core/shuffle, core/witness) and runs every
// check they run; what it adds is batching. The checks of one call (a
// history suffix's counterpart signatures, a sample's VRF proofs; at least
// batch_min of them) are resolved in one
// crypto::CryptoProvider::verify_batch(), which the real backend fans across
// threads of its own (see crypto/provider.hpp for the determinism contract).
//
// The engine keeps no state between calls, only its counters: a verdict is
// a function of the call's arguments alone, so no quarantine, eviction or
// leave has anything to invalidate. Verdict caches and per-partner history
// memos were measured and removed: under FastCrypto, hashing a check into a
// cache key cost more than the check, and the hit rates were 0 (VRF: every
// alpha carries a fresh nonce), 0.0003–0.16 (signatures) and about 0.08
// (history suffixes).
//
// The engine subclasses crypto::CryptoProvider, so it drops into any
// existing verification call site as a counting decorator (accusation
// re-verification, body-signature checks). One engine serves each verifying
// node (core::Node, harness HarnessNode) so its counters are per node; the
// provider-backed and engine-backed paths resolve the same
// plan_history_checks()/verify_sample_with() plans, which is what makes the
// verdicts bit-identical at any batch setting.
//
// Not thread-safe (the counters are plain integers): one engine is used by
// one thread at a time (the harness's wave drive hands each responder's
// engine to a single pool worker per wave, and worker threads inside
// verify_batch never re-enter the engine).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "accountnet/core/checkpoint.hpp"
#include "accountnet/core/history.hpp"
#include "accountnet/core/peerset.hpp"
#include "accountnet/core/types.hpp"
#include "accountnet/core/verify.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/obs/metrics.hpp"

namespace accountnet::core {

class SamplerBackend;

class VerificationEngine final : public crypto::CryptoProvider {
 public:
  struct Config {
    bool enable_batch = true;  ///< resolve a call's checks via verify_batch()
    /// Unread. The engine keeps no verdict caches or history memos; the
    /// fields stay so that configurations written against the cached engine
    /// still compile.
    std::size_t sig_cache_capacity = 4096;
    std::size_t vrf_cache_capacity = 4096;
    std::size_t history_memo_capacity = 256;
    /// Fewer checks than this are resolved with direct per-primitive calls
    /// (a batch of one just adds dispatch overhead).
    std::size_t batch_min = 2;
  };

  /// Monotonic engine-lifetime counters (history_full and the batch counts
  /// are also mirrored to obs metrics when a registry is attached). Every
  /// check reaches the inner provider, so sig_misses/vrf_misses count every
  /// signature/VRF check; sig_hits, vrf_hits, history_exact and
  /// history_extended stay 0 and remain only for readers written against
  /// the cached engine.
  struct Stats {
    std::uint64_t sig_hits = 0;
    std::uint64_t sig_misses = 0;
    std::uint64_t vrf_hits = 0;
    std::uint64_t vrf_misses = 0;
    std::uint64_t history_exact = 0;
    std::uint64_t history_extended = 0;
    std::uint64_t history_full = 0;  ///< history suffixes replayed
    std::uint64_t batch_calls = 0;   ///< inner verify_batch() invocations
    std::uint64_t batch_jobs = 0;    ///< jobs resolved through those calls
  };

  /// `inner` must outlive the engine. `registry` is optional; when given,
  /// the verify.history.full counter and the verify.batch.* series are kept
  /// current.
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
  /// Resolved through the inner provider: in one inner verify_batch() when
  /// enable_batch and there are at least batch_min jobs, else job by job.
  void verify_batch(std::span<const crypto::VerifyJob> jobs,
                    std::span<crypto::VerifyVerdict> verdicts) const override;
  const char* name() const override;

  // --- High-level verification ---------------------------------------------

  /// verify_history_suffix() with the counterpart signatures resolved through
  /// verify_batch().
  VerifyResult verify_history(const std::vector<HistoryEntry>& suffix,
                              const PeerId& owner, const Peerset& claimed) const;

  /// verify_history_suffix_anchored() with the checkpoint signature and the
  /// per-entry counterpart signatures resolved through this engine; only the
  /// post-checkpoint suffix is replayed (base = the sealed peerset).
  VerifyResult verify_history_anchored(const Checkpoint& ck,
                                       const std::vector<HistoryEntry>& suffix,
                                       const PeerId& owner,
                                       const Peerset& claimed) const;

  /// verify_sample() with all VRF proofs prefetched through verify_batch(),
  /// then replayed by verify_sample_with().
  VerifyResult verify_sample(const crypto::PublicKeyBytes& prover_key,
                             const Peerset& candidates, std::size_t want,
                             std::string_view domain, BytesView nonce,
                             const std::vector<Bytes>& proofs,
                             const std::vector<PeerId>& claimed) const;

  /// verify_one() through the same path.
  VerifyResult verify_one(const crypto::PublicKeyBytes& prover_key,
                          const Peerset& candidates, std::string_view domain,
                          BytesView nonce, const std::vector<Bytes>& proofs,
                          const PeerId& claimed) const;

  /// Backend-dispatching overloads (core/sampler.hpp). The default VRF
  /// backend takes the prefetch/batch path above (bit-identical to the
  /// pre-interface engine); any other backend replays through its own
  /// verify() with this engine standing in as the CryptoProvider.
  VerifyResult verify_sample(const SamplerBackend& backend,
                             const crypto::PublicKeyBytes& prover_key,
                             const Peerset& candidates, std::size_t want,
                             std::string_view domain, BytesView nonce,
                             const std::vector<Bytes>& proofs,
                             const std::vector<PeerId>& claimed) const;

  /// Single-pick variant of the backend-dispatching overload.
  VerifyResult verify_one(const SamplerBackend& backend,
                          const crypto::PublicKeyBytes& prover_key,
                          const Peerset& candidates, std::string_view domain,
                          BytesView nonce, const std::vector<Bytes>& proofs,
                          const PeerId& claimed) const;

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  const crypto::CryptoProvider& inner() const { return inner_; }

 private:
  /// Plan-based check of the whole suffix, replaying its deltas onto `base`.
  VerifyResult verify_entries(const std::vector<HistoryEntry>& suffix,
                              std::optional<Round> prev_round, const PeerId& owner,
                              const Peerset& base, const Peerset& claimed) const;

  const crypto::CryptoProvider& inner_;
  Config config_;
  obs::MetricsRegistry* registry_;
  // mutable: the CryptoProvider interface is const, and the counters are
  // observable only through stats/metrics, never through verdicts.
  mutable Stats stats_;

  struct MetricIds {
    obs::MetricId history_full = 0;
    obs::MetricId batch_calls = 0, batch_jobs = 0, batch_resolve = 0;
  };
  MetricIds ids_{};
};

}  // namespace accountnet::core
