#include "accountnet/core/verification_engine.hpp"

#include <algorithm>

#include "accountnet/core/sampler.hpp"
#include "accountnet/core/select.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::core {

namespace {

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

}  // namespace

VerificationEngine::VerificationEngine(const crypto::CryptoProvider& inner)
    : VerificationEngine(inner, Config(), nullptr) {}

VerificationEngine::VerificationEngine(const crypto::CryptoProvider& inner,
                                       Config config, obs::MetricsRegistry* registry)
    : inner_(inner), config_(config), registry_(registry) {
  if (registry_ != nullptr) {
    ids_.history_full = registry_->counter("verify.history.full");
    ids_.batch_calls = registry_->counter("verify.batch.calls");
    ids_.batch_jobs = registry_->counter("verify.batch.jobs");
    ids_.batch_resolve = registry_->timer("verify.batch.resolve");
  }
}

std::unique_ptr<crypto::Signer> VerificationEngine::make_signer(BytesView seed32) const {
  return inner_.make_signer(seed32);
}

const char* VerificationEngine::name() const { return inner_.name(); }

bool VerificationEngine::verify(const crypto::PublicKeyBytes& pk, BytesView msg,
                                BytesView sig) const {
  ++stats_.sig_misses;
  return inner_.verify(pk, msg, sig);
}

std::optional<std::array<std::uint8_t, 64>> VerificationEngine::vrf_verify(
    const crypto::PublicKeyBytes& pk, BytesView alpha, BytesView proof) const {
  ++stats_.vrf_misses;
  return inner_.vrf_verify(pk, alpha, proof);
}

void VerificationEngine::verify_batch(std::span<const crypto::VerifyJob> jobs,
                                      std::span<crypto::VerifyVerdict> verdicts) const {
  AN_ENSURE_MSG(jobs.size() == verdicts.size(), "verify_batch verdict slot mismatch");
  if (jobs.empty()) return;
  for (const auto& job : jobs) {
    if (job.kind == crypto::VerifyJob::Kind::kSignature) ++stats_.sig_misses;
    else ++stats_.vrf_misses;
  }
  if (!config_.enable_batch || jobs.size() < config_.batch_min) {
    for (std::size_t i = 0; i < jobs.size(); ++i) verdicts[i] = run_job(inner_, jobs[i]);
    return;
  }
  ++stats_.batch_calls;
  stats_.batch_jobs += jobs.size();
  if (registry_ != nullptr) {
    registry_->add(ids_.batch_calls);
    registry_->add(ids_.batch_jobs, jobs.size());
  }
  obs::ScopedTimer t(registry_, ids_.batch_resolve);
  inner_.verify_batch(jobs, verdicts);
}

VerifyResult VerificationEngine::verify_entries(const std::vector<HistoryEntry>& suffix,
                                                std::optional<Round> prev_round,
                                                const PeerId& owner, const Peerset& base,
                                                const Peerset& claimed) const {
  const HistoryCheckPlan plan = plan_history_checks(suffix, prev_round, owner);
  // Resolve every deferred signature through verify_batch, then report the
  // first failing check in sequential (seq) order — the same verdict
  // verify_history_suffix computes, at the cost of possibly verifying a few
  // signatures past the failure point.
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
  for (const auto& e : suffix) {
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
                                                const Peerset& claimed) const {
  ++stats_.history_full;
  if (registry_ != nullptr) registry_->add(ids_.history_full);
  return verify_entries(suffix, std::nullopt, owner, Peerset{}, claimed);
}

VerifyResult VerificationEngine::verify_history_anchored(
    const Checkpoint& ck, const std::vector<HistoryEntry>& suffix, const PeerId& owner,
    const Peerset& claimed) const {
  // The engine is itself a CryptoProvider, so the checkpoint signature is
  // counted like every per-entry signature below.
  if (const auto r = verify_checkpoint(ck, owner, *this); !r) return r;
  return verify_entries(suffix, ck.last_round, owner,
                        Peerset{std::vector<PeerId>(ck.peerset)}, claimed);
}

VerifyResult VerificationEngine::verify_sample(const crypto::PublicKeyBytes& prover_key,
                                               const Peerset& candidates,
                                               std::size_t want, std::string_view domain,
                                               BytesView nonce,
                                               const std::vector<Bytes>& proofs,
                                               const std::vector<PeerId>& claimed) const {
  const std::size_t target = std::min(want, candidates.size());
  // Prefetch every proof through verify_batch unless the replay would reject
  // before resolving any of them (empty draw, proof flood).
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
                                            const PeerId& claimed) const {
  return verify_sample(prover_key, candidates, 1, domain, nonce, proofs, {claimed});
}

VerifyResult VerificationEngine::verify_sample(const SamplerBackend& backend,
                                               const crypto::PublicKeyBytes& prover_key,
                                               const Peerset& candidates,
                                               std::size_t want, std::string_view domain,
                                               BytesView nonce,
                                               const std::vector<Bytes>& proofs,
                                               const std::vector<PeerId>& claimed) const {
  if (backend.capabilities().kind == SamplerKind::kVrf) {
    // The paper's backend keeps the dedicated prefetch/batch path so default
    // runs stay bit-identical to the pre-interface engine.
    return verify_sample(prover_key, candidates, want, domain, nonce, proofs, claimed);
  }
  return backend.verify(*this, prover_key, candidates, want, domain, nonce, proofs,
                        claimed);
}

VerifyResult VerificationEngine::verify_one(const SamplerBackend& backend,
                                            const crypto::PublicKeyBytes& prover_key,
                                            const Peerset& candidates,
                                            std::string_view domain, BytesView nonce,
                                            const std::vector<Bytes>& proofs,
                                            const PeerId& claimed) const {
  return verify_sample(backend, prover_key, candidates, 1, domain, nonce, proofs,
                       {claimed});
}

}  // namespace accountnet::core
