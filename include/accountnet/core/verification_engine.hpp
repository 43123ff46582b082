// VerificationEngine: the shared fast path for every proof check.
//
// The paper re-verifies a counterpart's entire retained history suffix on
// every exchange — reconstruction plus one signature/VRF check per entry —
// which `bench/abl_verification_cost` shows dominates protocol cost. The
// engine keeps the *verdicts* of the pure verification functions
// (core/history, core/select, core/shuffle, core/witness) while removing
// repeated crypto work through three layers:
//
//   1. Incremental reconstruction — a bounded per-counterpart memo of the
//      last verified suffix (entry count, rolling SHA-256 chain digest, last
//      round, reconstructed peerset). A returning partner whose new suffix
//      extends the previously verified one byte-for-byte only proves the new
//      entries; an unchanged suffix with an unchanged claim passes outright.
//      Memos are dropped on invalidate() (quarantine/eviction/leave).
//   2. Verdict memoization — bounded caches keyed by a digest of
//      (generation, signer key, message, signature) for signatures and
//      (generation, key, alpha, proof) for VRF proofs, shared across
//      shuffle, witness and accusation re-verification. Both positive and
//      negative verdicts are cached: the underlying providers are
//      deterministic, so a verdict can never change for fixed inputs.
//      invalidate() bumps the signer's generation, orphaning its entries.
//   3. Batching — one call's cache misses (at least batch_min of them) are
//      resolved in one crypto::CryptoProvider::verify_batch(), which the
//      real backend fans across threads of its own (see crypto/provider.hpp
//      for the determinism contract). An engine batches only the misses of
//      the call in hand; nothing outside it fills its caches.
//
// The engine subclasses crypto::CryptoProvider, so it drops into any
// existing verification call site as a memoizing decorator (accusation
// re-verification, body-signature checks). It is deliberately *stateful* —
// one engine per verifying node (core::Node, harness HarnessNode) — while
// the verification logic it replays stays in the pure functions; both the
// provider-backed and engine-backed paths resolve the same
// plan_history_checks()/verify_sample_with() plans, which is what makes the
// verdicts bit-identical with caches on or off and any batch size.
//
// Not thread-safe: one engine is used by one thread at a time (the
// harness's wave drive hands each responder's engine to a single pool
// worker per wave, and worker threads inside verify_batch never re-enter
// the engine).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "accountnet/core/checkpoint.hpp"
#include "accountnet/core/history.hpp"
#include "accountnet/core/peerset.hpp"
#include "accountnet/core/types.hpp"
#include "accountnet/core/verify.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/obs/metrics.hpp"
#include "accountnet/util/bounded.hpp"

namespace accountnet::core {

class SamplerBackend;

class VerificationEngine final : public crypto::CryptoProvider {
 public:
  struct Config {
    bool enable_cache = true;  ///< verdict memoization + history memos
    bool enable_batch = true;  ///< resolve cache misses via verify_batch()
    std::size_t sig_cache_capacity = 4096;
    std::size_t vrf_cache_capacity = 4096;
    std::size_t history_memo_capacity = 256;
    /// Fewer misses than this are resolved with direct per-primitive calls
    /// (a batch of one just adds dispatch overhead).
    std::size_t batch_min = 2;
  };

  /// Monotonic engine-lifetime counters (also mirrored to obs metrics when a
  /// registry is attached).
  struct Stats {
    std::uint64_t sig_hits = 0;
    std::uint64_t sig_misses = 0;
    std::uint64_t vrf_hits = 0;
    std::uint64_t vrf_misses = 0;
    std::uint64_t history_exact = 0;     ///< memo hit: unchanged suffix+claim
    std::uint64_t history_extended = 0;  ///< memo hit: only new entries checked
    std::uint64_t history_full = 0;      ///< no usable memo: full replay
    std::uint64_t invalidations = 0;
    std::uint64_t batch_calls = 0;  ///< inner verify_batch() invocations
    std::uint64_t batch_jobs = 0;   ///< jobs resolved through those calls
    std::uint64_t evictions = 0;    ///< FIFO drops across all three caches
  };

  /// `inner` must outlive the engine. `registry` is optional; when given,
  /// verify.cache.{hit,miss,evict} counters, verify.cache.*.occupancy
  /// gauges and the verify.batch.* series are kept current.
  explicit VerificationEngine(const crypto::CryptoProvider& inner);
  VerificationEngine(const crypto::CryptoProvider& inner, Config config,
                     obs::MetricsRegistry* registry = nullptr);

  // --- crypto::CryptoProvider (memoizing decorator) ------------------------

  std::unique_ptr<crypto::Signer> make_signer(BytesView seed32) const override;
  bool verify(const crypto::PublicKeyBytes& pk, BytesView msg,
              BytesView sig) const override;
  std::optional<std::array<std::uint8_t, 64>> vrf_verify(
      const crypto::PublicKeyBytes& pk, BytesView alpha,
      BytesView proof) const override;
  /// Cache-aware: hits fill their verdict slots directly; misses are
  /// resolved through the inner provider (batched when enable_batch and at
  /// least batch_min of them) and then cached.
  void verify_batch(std::span<const crypto::VerifyJob> jobs,
                    std::span<crypto::VerifyVerdict> verdicts) const override;
  const char* name() const override;

  // --- High-level verification ---------------------------------------------

  /// verify_history_suffix() through the partner memo + verdict caches.
  VerifyResult verify_history(const std::vector<HistoryEntry>& suffix,
                              const PeerId& owner, const Peerset& claimed);

  /// verify_history_suffix_anchored() through the verdict caches: the
  /// checkpoint signature and the per-entry counterpart signatures resolve
  /// through the cache/batch path, and only the post-checkpoint suffix is
  /// replayed (base = the sealed peerset). Anchored suffixes are bounded by
  /// the owner's checkpoint interval, so no partner memo is kept for them.
  VerifyResult verify_history_anchored(const Checkpoint& ck,
                                       const std::vector<HistoryEntry>& suffix,
                                       const PeerId& owner, const Peerset& claimed);

  /// verify_sample() with all VRF proofs prefetched through the cache/batch
  /// path, then replayed by verify_sample_with().
  VerifyResult verify_sample(const crypto::PublicKeyBytes& prover_key,
                             const Peerset& candidates, std::size_t want,
                             std::string_view domain, BytesView nonce,
                             const std::vector<Bytes>& proofs,
                             const std::vector<PeerId>& claimed);

  /// verify_one() through the same path.
  VerifyResult verify_one(const crypto::PublicKeyBytes& prover_key,
                          const Peerset& candidates, std::string_view domain,
                          BytesView nonce, const std::vector<Bytes>& proofs,
                          const PeerId& claimed);

  /// Backend-dispatching overloads (core/sampler.hpp). The default VRF
  /// backend takes the prefetch/batch path above (bit-identical to the
  /// pre-interface engine); any other backend replays through its own
  /// verify() with this engine standing in as the CryptoProvider, so
  /// primitive VRF checks still resolve through the verdict caches. A
  /// backend without per-signer verdict semantics bypasses the caches
  /// entirely (resolved against the inner provider) — invalidate() only
  /// knows how to orphan per-signer state.
  VerifyResult verify_sample(const SamplerBackend& backend,
                             const crypto::PublicKeyBytes& prover_key,
                             const Peerset& candidates, std::size_t want,
                             std::string_view domain, BytesView nonce,
                             const std::vector<Bytes>& proofs,
                             const std::vector<PeerId>& claimed);

  /// Single-pick variant of the backend-dispatching overload.
  VerifyResult verify_one(const SamplerBackend& backend,
                          const crypto::PublicKeyBytes& prover_key,
                          const Peerset& candidates, std::string_view domain,
                          BytesView nonce, const std::vector<Bytes>& proofs,
                          const PeerId& claimed);

  // --- Invalidation ---------------------------------------------------------

  /// Drops ALL cached state derived from `node`: its history memo and (via a
  /// generation bump) every cached signature/VRF verdict under its key.
  /// Must be called when a peer is quarantined, evicted or reported as left —
  /// a stale memo must never vouch for a partner whose standing changed.
  void invalidate(const PeerId& node);

  /// Drops everything (tests / reconfiguration).
  void clear();

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  const crypto::CryptoProvider& inner() const { return inner_; }
  std::size_t sig_cache_size() const { return sig_cache_.size(); }
  std::size_t vrf_cache_size() const { return vrf_cache_.size(); }
  std::size_t history_memo_size() const { return memos_.size(); }

 private:
  /// Last verified state for one counterpart. `chain` is the rolling digest
  /// c_k = SHA256(c_{k-1} ‖ SHA256(encode_entry(e_k))) over the verified
  /// suffix; `peerset` is the claim that verification reconstructed (the
  /// replay base for extension).
  struct PartnerMemo {
    std::size_t entry_count = 0;
    std::array<std::uint8_t, 32> chain{};
    Round last_round = 0;
    Peerset peerset;
  };
  struct VrfVerdict {
    bool ok = false;
    std::array<std::uint8_t, 64> beta{};
  };

  /// SHA-256 over (kind, the key's generation, key, input, proof): the
  /// verdict caches' key.
  using CacheKey = std::array<std::uint8_t, 32>;

  std::uint64_t generation(const crypto::PublicKeyBytes& pk) const;
  CacheKey sig_key(const crypto::PublicKeyBytes& pk, BytesView msg, BytesView sig) const;
  CacheKey vrf_key(const crypto::PublicKeyBytes& pk, BytesView alpha,
                   BytesView proof) const;
  /// Resolves `jobs[miss[i]]` through the inner provider (batched or not)
  /// into `verdicts`; counts + times the batch.
  void resolve_misses(std::span<const crypto::VerifyJob> jobs,
                      const std::vector<std::size_t>& miss,
                      std::span<crypto::VerifyVerdict> verdicts) const;
  /// Plan-based suffix check over suffix[begin..), replaying deltas onto
  /// `base`; shared by the full and extension paths.
  VerifyResult verify_entries(const std::vector<HistoryEntry>& suffix,
                              std::size_t begin, std::optional<Round> prev_round,
                              const PeerId& owner, const Peerset& base,
                              const Peerset& claimed);
  void sync_evictions() const;
  void update_gauges() const;

  const crypto::CryptoProvider& inner_;
  Config config_;
  obs::MetricsRegistry* registry_;

  // mutable: the CryptoProvider interface is const, and memo upkeep is
  // observable only through stats/metrics, never through verdicts.
  mutable BoundedMap<CacheKey, bool, BytePrefixHash> sig_cache_;
  mutable BoundedMap<CacheKey, VrfVerdict, BytePrefixHash> vrf_cache_;
  BoundedMap<std::string, PartnerMemo> memos_;
  /// Invalidation generations per signer key; absent = 0. Bounded like the
  /// caches — losing a generation can only re-expose verdicts for
  /// immutable (key, message, signature) facts, never a partner memo.
  mutable BoundedMap<crypto::PublicKeyBytes, std::uint64_t, BytePrefixHash> generations_;
  mutable std::uint64_t reported_evictions_ = 0;
  mutable Stats stats_;

  struct MetricIds {
    obs::MetricId hit = 0, miss = 0, evict = 0, invalidations = 0;
    obs::MetricId history_exact = 0, history_extended = 0, history_full = 0;
    obs::MetricId batch_calls = 0, batch_jobs = 0, batch_resolve = 0;
    obs::MetricId occ_sig = 0, occ_vrf = 0, occ_memo = 0;
  };
  MetricIds ids_{};
};

}  // namespace accountnet::core
