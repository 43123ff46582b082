#include "accountnet/crypto/provider.hpp"

#include <algorithm>
#include <string_view>
#include <thread>
#include <vector>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

VerifyVerdict run_verify_job(const CryptoProvider& provider, const VerifyJob& job) {
  VerifyVerdict v;
  if (job.kind == VerifyJob::Kind::kSignature) {
    v.ok = provider.verify(job.pk, job.msg, job.sig);
  } else {
    const auto beta = provider.vrf_verify(job.pk, job.msg, job.sig);
    v.ok = beta.has_value();
    if (beta) v.vrf_output = *beta;
  }
  return v;
}

}  // namespace

void CryptoProvider::verify_batch(std::span<const VerifyJob> jobs,
                                  std::span<VerifyVerdict> verdicts) const {
  AN_ENSURE_MSG(jobs.size() == verdicts.size(), "verify_batch verdict slot mismatch");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    verdicts[i] = run_verify_job(*this, jobs[i]);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Real backend: Ed25519 + ECVRF.
// ---------------------------------------------------------------------------

class RealSigner final : public Signer {
 public:
  explicit RealSigner(BytesView seed32) : kp_(ed25519_keypair_from_seed(seed32)) {}

  const PublicKeyBytes& public_key() const override { return kp_.public_key; }

  Bytes sign(BytesView msg) const override {
    const auto sig = ed25519_sign(kp_, msg);
    return Bytes(sig.begin(), sig.end());
  }

  Bytes vrf_prove(BytesView alpha) const override {
    const auto proof = crypto::vrf_prove(kp_, alpha);
    return Bytes(proof.begin(), proof.end());
  }

  std::array<std::uint8_t, 64> vrf_output(BytesView alpha) const override {
    return crypto::vrf_output(kp_, alpha);
  }

 private:
  Ed25519KeyPair kp_;
};

class RealCryptoProvider final : public CryptoProvider {
 public:
  std::unique_ptr<Signer> make_signer(BytesView seed32) const override {
    return std::make_unique<RealSigner>(seed32);
  }

  bool verify(const PublicKeyBytes& pk, BytesView msg, BytesView sig) const override {
    return ed25519_verify(pk, msg, sig);
  }

  std::optional<std::array<std::uint8_t, 64>> vrf_verify(const PublicKeyBytes& pk,
                                                         BytesView alpha,
                                                         BytesView proof) const override {
    return crypto::vrf_verify(pk, alpha, proof);
  }

  // Fans jobs across a worker pool in fixed contiguous chunks; each worker
  // writes only its own disjoint verdict slots, so the result is independent
  // of thread scheduling (the determinism contract in provider.hpp). Small
  // batches and single-core hosts stay sequential.
  void verify_batch(std::span<const VerifyJob> jobs,
                    std::span<VerifyVerdict> verdicts) const override {
    AN_ENSURE_MSG(jobs.size() == verdicts.size(), "verify_batch verdict slot mismatch");
    constexpr std::size_t kMinJobsPerWorker = 4;
    constexpr std::size_t kMaxWorkers = 8;
    static const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t n = jobs.size();
    const std::size_t workers = std::min({hw, n / kMinJobsPerWorker, kMaxWorkers});
    if (workers <= 1) {
      for (std::size_t i = 0; i < n; ++i) verdicts[i] = run_verify_job(*this, jobs[i]);
      return;
    }
    const std::size_t chunk = (n + workers - 1) / workers;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t begin = w * chunk;
      const std::size_t end = std::min(n, begin + chunk);
      if (begin >= end) break;
      pool.emplace_back([this, jobs, verdicts, begin, end] {
        for (std::size_t i = begin; i < end; ++i) {
          verdicts[i] = run_verify_job(*this, jobs[i]);
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  const char* name() const override { return "real(ed25519+ecvrf)"; }
};

// ---------------------------------------------------------------------------
// Fast backend: publicly-computable keyed hashes. Anyone can recompute both
// the "signature" and the "VRF" from the public key, so verification always
// succeeds for honestly-formed values and fails for tampered ones — the shape
// the protocol logic needs — while forgery resistance is explicitly absent.
// ---------------------------------------------------------------------------

BytesView tag_bytes(std::string_view tag) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size());
}

// Each stand-in hashes tag || key || message, streamed into the hash.
PublicKeyBytes fast_public_key(BytesView seed32) {
  Sha256 h;
  h.update(tag_bytes("fastpk"));
  h.update(seed32);
  return h.finish();
}

Sha256::Digest fast_sign(const PublicKeyBytes& pk, BytesView msg) {
  Sha256 h;
  h.update(tag_bytes("fastsig"));
  h.update(pk);
  h.update(msg);
  return h.finish();
}

std::array<std::uint8_t, 64> fast_vrf_output(const PublicKeyBytes& pk, BytesView alpha) {
  Sha512 h;
  h.update(tag_bytes("fastvrf"));
  h.update(pk);
  h.update(alpha);
  return h.finish();
}

class FastSigner final : public Signer {
 public:
  explicit FastSigner(BytesView seed32) : pk_(fast_public_key(seed32)) {}

  const PublicKeyBytes& public_key() const override { return pk_; }

  Bytes sign(BytesView msg) const override {
    const auto sig = fast_sign(pk_, msg);
    return Bytes(sig.begin(), sig.end());
  }

  Bytes vrf_prove(BytesView alpha) const override {
    // The "proof" is the output itself; verification recomputes it.
    const auto out = fast_vrf_output(pk_, alpha);
    return Bytes(out.begin(), out.end());
  }

  std::array<std::uint8_t, 64> vrf_output(BytesView alpha) const override {
    return fast_vrf_output(pk_, alpha);
  }

 private:
  PublicKeyBytes pk_;
};

class FastCryptoProvider final : public CryptoProvider {
 public:
  std::unique_ptr<Signer> make_signer(BytesView seed32) const override {
    return std::make_unique<FastSigner>(seed32);
  }

  bool verify(const PublicKeyBytes& pk, BytesView msg, BytesView sig) const override {
    const auto expected = fast_sign(pk, msg);
    return ct_equal(expected, sig);
  }

  std::optional<std::array<std::uint8_t, 64>> vrf_verify(const PublicKeyBytes& pk,
                                                         BytesView alpha,
                                                         BytesView proof) const override {
    const auto expected = fast_vrf_output(pk, alpha);
    if (!ct_equal(BytesView(expected.data(), expected.size()), proof)) return std::nullopt;
    return expected;
  }

  const char* name() const override { return "fast(keyed-sha2)"; }
};

}  // namespace

std::unique_ptr<CryptoProvider> make_real_crypto() {
  return std::make_unique<RealCryptoProvider>();
}

std::unique_ptr<CryptoProvider> make_fast_crypto() {
  return std::make_unique<FastCryptoProvider>();
}

}  // namespace accountnet::crypto
