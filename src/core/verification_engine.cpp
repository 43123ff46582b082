#include "accountnet/core/verification_engine.hpp"

#include <algorithm>

#include "accountnet/core/sampler.hpp"
#include "accountnet/core/select.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/wire/codec.hpp"

namespace accountnet::core {

namespace {

void update_u64le(crypto::Sha256& h, std::uint64_t v) {
  std::array<std::uint8_t, 8> b;
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(BytesView(b.data(), b.size()));
}

crypto::VerifyVerdict run_job(const crypto::CryptoProvider& provider,
                              const crypto::VerifyJob& job) {
  crypto::VerifyVerdict v;
  if (job.kind == crypto::VerifyJob::Kind::kSignature) {
    v.ok = provider.verify(job.pk, job.msg, job.sig);
  } else {
    const auto beta = provider.vrf_verify(job.pk, job.msg, job.sig);
    v.ok = beta.has_value();
    if (beta) v.vrf_output = *beta;
  }
  return v;
}

std::string memo_key(const PeerId& node) {
  std::string key = node.addr;
  key.push_back('\0');
  key.append(reinterpret_cast<const char*>(node.key.data()), node.key.size());
  return key;
}

}  // namespace

VerificationEngine::VerificationEngine(const crypto::CryptoProvider& inner)
    : VerificationEngine(inner, Config(), nullptr) {}

VerificationEngine::VerificationEngine(const crypto::CryptoProvider& inner,
                                       Config config, obs::MetricsRegistry* registry)
    : inner_(inner),
      config_(config),
      registry_(registry),
      sig_cache_(config.sig_cache_capacity),
      vrf_cache_(config.vrf_cache_capacity),
      memos_(config.history_memo_capacity),
      generations_(config.sig_cache_capacity) {
  if (registry_ != nullptr) {
    ids_.hit = registry_->counter("verify.cache.hit");
    ids_.miss = registry_->counter("verify.cache.miss");
    ids_.evict = registry_->counter("verify.cache.evict");
    ids_.invalidations = registry_->counter("verify.cache.invalidations");
    ids_.history_exact = registry_->counter("verify.history.exact");
    ids_.history_extended = registry_->counter("verify.history.extended");
    ids_.history_full = registry_->counter("verify.history.full");
    ids_.batch_calls = registry_->counter("verify.batch.calls");
    ids_.batch_jobs = registry_->counter("verify.batch.jobs");
    ids_.batch_resolve = registry_->timer("verify.batch.resolve");
    ids_.occ_sig = registry_->gauge("verify.cache.sig.occupancy");
    ids_.occ_vrf = registry_->gauge("verify.cache.vrf.occupancy");
    ids_.occ_memo = registry_->gauge("verify.cache.history.occupancy");
  }
}

std::uint64_t VerificationEngine::generation(const crypto::PublicKeyBytes& pk) const {
  const std::uint64_t* g = generations_.find(pk);
  return g == nullptr ? 0 : *g;
}

VerificationEngine::CacheKey VerificationEngine::sig_key(const crypto::PublicKeyBytes& pk,
                                                         BytesView msg,
                                                         BytesView sig) const {
  crypto::Sha256 h;
  const std::uint8_t tag = 0x01;
  h.update(BytesView(&tag, 1));
  update_u64le(h, generation(pk));
  h.update(BytesView(pk.data(), pk.size()));
  update_u64le(h, msg.size());
  h.update(msg);
  h.update(sig);
  return h.finish();
}

VerificationEngine::CacheKey VerificationEngine::vrf_key(const crypto::PublicKeyBytes& pk,
                                                         BytesView alpha,
                                                         BytesView proof) const {
  crypto::Sha256 h;
  const std::uint8_t tag = 0x02;
  h.update(BytesView(&tag, 1));
  update_u64le(h, generation(pk));
  h.update(BytesView(pk.data(), pk.size()));
  update_u64le(h, alpha.size());
  h.update(alpha);
  h.update(proof);
  return h.finish();
}

void VerificationEngine::sync_evictions() const {
  const std::uint64_t total =
      sig_cache_.evictions() + vrf_cache_.evictions() + memos_.evictions();
  if (total > reported_evictions_) {
    const std::uint64_t delta = total - reported_evictions_;
    stats_.evictions += delta;
    if (registry_ != nullptr) registry_->add(ids_.evict, delta);
    reported_evictions_ = total;
  }
}

void VerificationEngine::update_gauges() const {
  if (registry_ == nullptr) return;
  registry_->set(ids_.occ_sig, static_cast<double>(sig_cache_.size()));
  registry_->set(ids_.occ_vrf, static_cast<double>(vrf_cache_.size()));
  registry_->set(ids_.occ_memo, static_cast<double>(memos_.size()));
}

std::unique_ptr<crypto::Signer> VerificationEngine::make_signer(BytesView seed32) const {
  return inner_.make_signer(seed32);
}

const char* VerificationEngine::name() const { return inner_.name(); }

bool VerificationEngine::verify(const crypto::PublicKeyBytes& pk, BytesView msg,
                                BytesView sig) const {
  if (!config_.enable_cache) return inner_.verify(pk, msg, sig);
  const CacheKey key = sig_key(pk, msg, sig);
  if (const bool* hit = sig_cache_.find(key)) {
    ++stats_.sig_hits;
    if (registry_ != nullptr) registry_->add(ids_.hit);
    return *hit;
  }
  ++stats_.sig_misses;
  if (registry_ != nullptr) registry_->add(ids_.miss);
  const bool ok = inner_.verify(pk, msg, sig);
  sig_cache_.put(key, ok);
  sync_evictions();
  update_gauges();
  return ok;
}

std::optional<std::array<std::uint8_t, 64>> VerificationEngine::vrf_verify(
    const crypto::PublicKeyBytes& pk, BytesView alpha, BytesView proof) const {
  if (!config_.enable_cache) return inner_.vrf_verify(pk, alpha, proof);
  const CacheKey key = vrf_key(pk, alpha, proof);
  if (const VrfVerdict* hit = vrf_cache_.find(key)) {
    ++stats_.vrf_hits;
    if (registry_ != nullptr) registry_->add(ids_.hit);
    if (!hit->ok) return std::nullopt;
    return hit->beta;
  }
  ++stats_.vrf_misses;
  if (registry_ != nullptr) registry_->add(ids_.miss);
  const auto beta = inner_.vrf_verify(pk, alpha, proof);
  VrfVerdict v;
  v.ok = beta.has_value();
  if (beta) v.beta = *beta;
  vrf_cache_.put(key, v);
  sync_evictions();
  update_gauges();
  return beta;
}

void VerificationEngine::resolve_misses(std::span<const crypto::VerifyJob> jobs,
                                        const std::vector<std::size_t>& miss,
                                        std::span<crypto::VerifyVerdict> verdicts) const {
  if (miss.empty()) return;
  if (config_.enable_batch && miss.size() >= config_.batch_min) {
    std::vector<crypto::VerifyJob> pending;
    pending.reserve(miss.size());
    for (const std::size_t idx : miss) pending.push_back(jobs[idx]);
    std::vector<crypto::VerifyVerdict> resolved(pending.size());
    ++stats_.batch_calls;
    stats_.batch_jobs += pending.size();
    if (registry_ != nullptr) {
      registry_->add(ids_.batch_calls);
      registry_->add(ids_.batch_jobs, pending.size());
    }
    {
      obs::ScopedTimer t(registry_, ids_.batch_resolve);
      inner_.verify_batch(pending, resolved);
    }
    for (std::size_t i = 0; i < miss.size(); ++i) verdicts[miss[i]] = resolved[i];
  } else {
    for (const std::size_t idx : miss) verdicts[idx] = run_job(inner_, jobs[idx]);
  }
}

void VerificationEngine::verify_batch(std::span<const crypto::VerifyJob> jobs,
                                      std::span<crypto::VerifyVerdict> verdicts) const {
  AN_ENSURE_MSG(jobs.size() == verdicts.size(), "verify_batch verdict slot mismatch");
  std::vector<std::size_t> miss;
  std::vector<CacheKey> keys;
  if (!config_.enable_cache) {
    miss.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) miss[i] = i;
  } else {
    keys.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& job = jobs[i];
      const bool is_sig = job.kind == crypto::VerifyJob::Kind::kSignature;
      keys[i] = is_sig ? sig_key(job.pk, job.msg, job.sig)
                       : vrf_key(job.pk, job.msg, job.sig);
      bool hit = false;
      if (is_sig) {
        if (const bool* cached = sig_cache_.find(keys[i])) {
          verdicts[i].ok = *cached;
          verdicts[i].vrf_output = {};
          hit = true;
        }
      } else if (const VrfVerdict* cached = vrf_cache_.find(keys[i])) {
        verdicts[i].ok = cached->ok;
        verdicts[i].vrf_output = cached->ok ? cached->beta
                                            : std::array<std::uint8_t, 64>{};
        hit = true;
      }
      if (hit) {
        if (is_sig) ++stats_.sig_hits; else ++stats_.vrf_hits;
        if (registry_ != nullptr) registry_->add(ids_.hit);
      } else {
        if (is_sig) ++stats_.sig_misses; else ++stats_.vrf_misses;
        if (registry_ != nullptr) registry_->add(ids_.miss);
        miss.push_back(i);
      }
    }
  }
  resolve_misses(jobs, miss, verdicts);
  if (config_.enable_cache) {
    for (const std::size_t idx : miss) {
      if (jobs[idx].kind == crypto::VerifyJob::Kind::kSignature) {
        sig_cache_.put(keys[idx], verdicts[idx].ok);
      } else {
        VrfVerdict v;
        v.ok = verdicts[idx].ok;
        v.beta = verdicts[idx].vrf_output;
        vrf_cache_.put(keys[idx], v);
      }
    }
    sync_evictions();
    update_gauges();
  }
}

VerifyResult VerificationEngine::verify_entries(const std::vector<HistoryEntry>& suffix,
                                                std::size_t begin,
                                                std::optional<Round> prev_round,
                                                const PeerId& owner, const Peerset& base,
                                                const Peerset& claimed) {
  const HistoryCheckPlan plan = plan_history_checks(suffix, begin, prev_round, owner);
  // Resolve every deferred signature through the cache/batch path, then
  // report the first failing check in sequential (seq) order — the same
  // verdict verify_history_suffix computes, at the cost of possibly
  // verifying a few signatures past the failure point.
  std::vector<crypto::VerifyJob> jobs;
  jobs.reserve(plan.sig_checks.size());
  for (const auto& c : plan.sig_checks) {
    crypto::VerifyJob j;
    j.kind = crypto::VerifyJob::Kind::kSignature;
    j.pk = c.pk;
    j.msg = BytesView(c.payload.data(), c.payload.size());
    j.sig = BytesView(c.signature->data(), c.signature->size());
    jobs.push_back(j);
  }
  std::vector<crypto::VerifyVerdict> verdicts(jobs.size());
  verify_batch(jobs, verdicts);
  for (std::size_t i = 0; i < plan.sig_checks.size(); ++i) {
    const auto& c = plan.sig_checks[i];
    if (plan.structural_failure && plan.structural_failure->first < c.seq) break;
    if (!verdicts[i].ok) return VerifyResult::fail(c.on_fail);
  }
  if (plan.structural_failure) {
    return VerifyResult::fail(plan.structural_failure->second);
  }
  Peerset reconstructed = base;
  for (std::size_t i = begin; i < suffix.size(); ++i) {
    const auto& e = suffix[i];
    for (const auto& p : e.out) reconstructed.erase(p);
    reconstructed.insert_all(e.in);
    reconstructed.insert_all(e.fill);
  }
  if (!(reconstructed == claimed)) {
    return VerifyResult::fail(VerifyError::kReconstructionMismatch);
  }
  return VerifyResult::pass();
}

VerifyResult VerificationEngine::verify_history(const std::vector<HistoryEntry>& suffix,
                                                const PeerId& owner,
                                                const Peerset& claimed) {
  if (!config_.enable_cache) {
    ++stats_.history_full;
    if (registry_ != nullptr) registry_->add(ids_.history_full);
    return verify_entries(suffix, 0, std::nullopt, owner, Peerset{}, claimed);
  }

  const std::size_t n = suffix.size();
  // Rolling chain digests: chain[k] commits to suffix[0..k). An exact or
  // prefix match against the memo proves the previously verified bytes are
  // unchanged, so their per-entry checks need not be repeated.
  std::vector<std::array<std::uint8_t, 32>> chain(n + 1);
  chain[0] = {};
  for (std::size_t i = 0; i < n; ++i) {
    chain[i + 1] = chain_step(chain[i], entry_digest(suffix[i]));
  }

  const std::string key = memo_key(owner);
  const PartnerMemo* memo = memos_.find(key);

  if (memo != nullptr && memo->entry_count == n && memo->chain == chain[n] &&
      memo->peerset == claimed) {
    ++stats_.history_exact;
    if (registry_ != nullptr) {
      registry_->add(ids_.history_exact);
      registry_->add(ids_.hit);
    }
    return VerifyResult::pass();
  }

  if (memo != nullptr && memo->entry_count > 0 && memo->entry_count < n &&
      memo->chain == chain[memo->entry_count]) {
    // The verified suffix is a byte-identical prefix: only the new entries
    // need checking, replaying deltas from the previously reconstructed
    // peerset. A failure here equals the full-verify verdict because the
    // prefix re-checks are deterministic repeats of checks that passed.
    ++stats_.history_extended;
    if (registry_ != nullptr) {
      registry_->add(ids_.history_extended);
      registry_->add(ids_.hit);
    }
    const std::size_t begin = memo->entry_count;
    const Round prev = memo->last_round;
    const Peerset base = memo->peerset;
    const VerifyResult r = verify_entries(suffix, begin, prev, owner, base, claimed);
    if (r) {
      memos_.put(key, PartnerMemo{n, chain[n], suffix.back().self_round, claimed});
      sync_evictions();
    }
    update_gauges();
    return r;
  }

  ++stats_.history_full;
  if (registry_ != nullptr) {
    registry_->add(ids_.history_full);
    registry_->add(ids_.miss);
  }
  const VerifyResult r = verify_entries(suffix, 0, std::nullopt, owner, Peerset{}, claimed);
  if (r) {
    memos_.put(key,
               PartnerMemo{n, chain[n], n == 0 ? Round{0} : suffix.back().self_round,
                           claimed});
    sync_evictions();
  }
  update_gauges();
  return r;
}

VerifyResult VerificationEngine::verify_history_anchored(
    const Checkpoint& ck, const std::vector<HistoryEntry>& suffix, const PeerId& owner,
    const Peerset& claimed) {
  // The engine is itself a CryptoProvider, so the checkpoint signature (and
  // every per-entry signature below) resolves through the verdict caches.
  if (const auto r = verify_checkpoint(ck, owner, *this); !r) return r;
  return verify_entries(suffix, 0, ck.last_round, owner,
                        Peerset{std::vector<PeerId>(ck.peerset)}, claimed);
}

VerifyResult VerificationEngine::verify_sample(const crypto::PublicKeyBytes& prover_key,
                                               const Peerset& candidates,
                                               std::size_t want, std::string_view domain,
                                               BytesView nonce,
                                               const std::vector<Bytes>& proofs,
                                               const std::vector<PeerId>& claimed) {
  const std::size_t target = std::min(want, candidates.size());
  // Prefetch every proof through the cache/batch path unless the replay
  // would reject before resolving any of them (empty draw, proof flood).
  std::vector<crypto::VerifyVerdict> table;
  std::vector<Bytes> alphas;
  bool prefetched = false;
  if (target > 0 && !proofs.empty() && proofs.size() <= kMaxDrawAttempts) {
    alphas.resize(proofs.size());
    std::vector<crypto::VerifyJob> jobs(proofs.size());
    for (std::size_t i = 0; i < proofs.size(); ++i) {
      alphas[i] = draw_alpha(domain, nonce, static_cast<std::uint64_t>(i) + 1);
      jobs[i].kind = crypto::VerifyJob::Kind::kVrf;
      jobs[i].pk = prover_key;
      jobs[i].msg = BytesView(alphas[i].data(), alphas[i].size());
      jobs[i].sig = BytesView(proofs[i].data(), proofs[i].size());
    }
    table.resize(jobs.size());
    verify_batch(jobs, table);
    prefetched = true;
  }
  return verify_sample_with(
      [&](std::size_t i, BytesView alpha) -> std::optional<std::array<std::uint8_t, 64>> {
        if (prefetched) {
          if (!table[i].ok) return std::nullopt;
          return table[i].vrf_output;
        }
        return vrf_verify(prover_key, alpha, proofs[i]);
      },
      candidates, want, domain, nonce, proofs, claimed);
}

VerifyResult VerificationEngine::verify_one(const crypto::PublicKeyBytes& prover_key,
                                            const Peerset& candidates,
                                            std::string_view domain, BytesView nonce,
                                            const std::vector<Bytes>& proofs,
                                            const PeerId& claimed) {
  return verify_sample(prover_key, candidates, 1, domain, nonce, proofs, {claimed});
}

VerifyResult VerificationEngine::verify_sample(const SamplerBackend& backend,
                                               const crypto::PublicKeyBytes& prover_key,
                                               const Peerset& candidates,
                                               std::size_t want, std::string_view domain,
                                               BytesView nonce,
                                               const std::vector<Bytes>& proofs,
                                               const std::vector<PeerId>& claimed) {
  const auto& caps = backend.capabilities();
  if (caps.kind == SamplerKind::kVrf) {
    // The paper's backend keeps the dedicated prefetch/batch path so default
    // runs stay bit-identical to the pre-interface engine.
    return verify_sample(prover_key, candidates, want, domain, nonce, proofs, claimed);
  }
  // Other backends replay through their own verify(); `*this` (or the inner
  // provider, if the backend's verdicts are not per-signer and thus outside
  // invalidate()'s reach) resolves the primitive VRF checks.
  const crypto::CryptoProvider& resolver =
      caps.per_signer_verdicts ? static_cast<const crypto::CryptoProvider&>(*this)
                               : inner_;
  return backend.verify(resolver, prover_key, candidates, want, domain, nonce, proofs,
                        claimed);
}

VerifyResult VerificationEngine::verify_one(const SamplerBackend& backend,
                                            const crypto::PublicKeyBytes& prover_key,
                                            const Peerset& candidates,
                                            std::string_view domain, BytesView nonce,
                                            const std::vector<Bytes>& proofs,
                                            const PeerId& claimed) {
  return verify_sample(backend, prover_key, candidates, 1, domain, nonce, proofs,
                       {claimed});
}

void VerificationEngine::invalidate(const PeerId& node) {
  memos_.erase(memo_key(node));
  ++generations_.at_or_insert(node.key);
  ++stats_.invalidations;
  if (registry_ != nullptr) registry_->add(ids_.invalidations);
  sync_evictions();
  update_gauges();
}

void VerificationEngine::clear() {
  sig_cache_ = decltype(sig_cache_)(config_.sig_cache_capacity);
  vrf_cache_ = decltype(vrf_cache_)(config_.vrf_cache_capacity);
  memos_ = decltype(memos_)(config_.history_memo_capacity);
  generations_ = decltype(generations_)(config_.sig_cache_capacity);
  reported_evictions_ = 0;
  update_gauges();
}

}  // namespace accountnet::core
