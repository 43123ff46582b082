#include "accountnet/crypto/provider.hpp"

#include <algorithm>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/bounded.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

void CryptoProvider::verify_batch(std::span<const VerifyJob> jobs,
                                  std::span<VerifyVerdict> verdicts) const {
  AN_ENSURE_MSG(jobs.size() == verdicts.size(), "verify_batch verdict slot mismatch");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const VerifyJob& job = jobs[i];
    VerifyVerdict& v = verdicts[i];
    v = VerifyVerdict{};
    if (job.kind == VerifyJob::Kind::kSignature) {
      v.ok = verify(job.pk, job.msg, job.sig);
    } else if (const auto beta = vrf_verify(job.pk, job.msg, job.sig)) {
      v.ok = true;
      v.vrf_output = *beta;
    }
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

// Decoded verification keys, at most detail::kKeyCacheCapacity of them,
// shared by every thread verifying through one provider. A key is admitted
// on its first use (it had to be decoded anyway) and gets its comb table on
// its second, so a key seen once costs what an uncached verification does
// (BM_ProviderVerifyColdKey against BM_Ed25519Verify in micro_crypto).
// When the cache is full a miss advances a CLOCK hand by one slot: a key
// used since the hand last passed keeps its slot (and loses its mark) and
// the new key is verified without being cached; an unused one is replaced.
// A stream of new keys therefore never evicts keys that stay in use, and a
// key that does not decode is never cached.
class KeyCache {
 public:
  /// The key for `pk`, or nullptr if it does not decode.
  std::shared_ptr<const VerifyKey> get(const PublicKeyBytes& pk) {
    {
      std::unique_lock lock(mu_);
      const auto it = index_.find(pk);
      if (it != index_.end()) {
        Slot& slot = slots_[it->second];
        slot.used = true;
        if (slot.table_claimed) return slot.key;
        slot.table_claimed = true;  // this thread builds it, outside the lock
        auto plain = slot.key;
        ++tables_built_;
        lock.unlock();
        auto tabled = std::make_shared<const VerifyKey>(plain->with_table());
        lock.lock();
        const auto again = index_.find(pk);  // the slot may have been reused meanwhile
        if (again != index_.end()) {
          slots_[again->second].key = tabled;
          slots_[again->second].table_claimed = true;
        }
        return tabled;
      }
    }
    auto decoded = VerifyKey::decode(pk);
    if (!decoded) return nullptr;
    auto key = std::make_shared<const VerifyKey>(std::move(*decoded));
    std::lock_guard lock(mu_);
    const auto it = index_.find(pk);  // another thread may have admitted it
    if (it != index_.end()) return slots_[it->second].key;
    if (slots_.size() < detail::kKeyCacheCapacity) {
      index_.emplace(pk, slots_.size());
      slots_.push_back(Slot{key, true, false});
      return key;
    }
    const std::size_t victim = hand_;
    hand_ = (hand_ + 1) % slots_.size();
    if (slots_[victim].used) {
      slots_[victim].used = false;
      return key;
    }
    index_.erase(slots_[victim].key->bytes());
    index_.emplace(pk, victim);
    slots_[victim] = Slot{key, true, false};
    return key;
  }

  detail::KeyCacheStats stats() const {
    std::lock_guard lock(mu_);
    return {slots_.size(), tables_built_};
  }

 private:
  struct Slot {
    std::shared_ptr<const VerifyKey> key;
    bool used;           // looked up since the CLOCK hand last passed
    bool table_claimed;  // a thread has started building the table
  };

  mutable std::mutex mu_;
  std::unordered_map<PublicKeyBytes, std::size_t, BytePrefixHash> index_;  // key -> slot
  std::vector<Slot> slots_;
  std::size_t hand_ = 0;
  std::size_t tables_built_ = 0;
};

class RealCryptoProvider final : public CryptoProvider {
 public:
  std::unique_ptr<Signer> make_signer(BytesView seed32) const override {
    return std::make_unique<RealSigner>(seed32);
  }

  bool verify(const PublicKeyBytes& pk, BytesView msg, BytesView sig) const override {
    const auto key = keys_.get(pk);
    return key != nullptr && ed25519_verify(*key, msg, sig);
  }

  std::optional<std::array<std::uint8_t, 64>> vrf_verify(const PublicKeyBytes& pk,
                                                         BytesView alpha,
                                                         BytesView proof) const override {
    const auto key = keys_.get(pk);
    if (key == nullptr) return std::nullopt;
    return crypto::vrf_verify(*key, alpha, proof);
  }

  detail::KeyCacheStats key_cache_stats() const { return keys_.stats(); }

  const char* name() const override { return "real(ed25519+ecvrf)"; }

 private:
  mutable KeyCache keys_;
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

/// The fast backend's counterpart of the real backend's draw memo
/// (vrf.cpp): every sampler asks for the output and then the proof of the
/// same alpha, and here both are the one keyed hash, so each thread
/// remembers its last (key, alpha) and its hash. `valid` drops before the
/// key and alpha change, so a failed allocation in the copy of alpha leaves
/// no entry that pairs one input with another input's hash.
struct FastDraw {
  bool valid = false;
  PublicKeyBytes pk{};
  Bytes alpha;
  std::array<std::uint8_t, 64> beta{};
};

thread_local FastDraw t_last_fast_draw;

const std::array<std::uint8_t, 64>& fast_draw(const PublicKeyBytes& pk, BytesView alpha) {
  FastDraw& d = t_last_fast_draw;
  if (d.valid && d.pk == pk &&
      std::equal(d.alpha.begin(), d.alpha.end(), alpha.begin(), alpha.end())) {
    return d.beta;
  }
  d.valid = false;
  d.alpha.assign(alpha.begin(), alpha.end());
  d.pk = pk;
  d.beta = fast_vrf_output(pk, alpha);
  d.valid = true;
  return d.beta;
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
    const auto& out = fast_draw(pk_, alpha);
    return Bytes(out.begin(), out.end());
  }

  std::array<std::uint8_t, 64> vrf_output(BytesView alpha) const override {
    return fast_draw(pk_, alpha);
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

detail::KeyCacheStats detail::key_cache_stats(const CryptoProvider& provider) {
  const auto* real = dynamic_cast<const RealCryptoProvider*>(&provider);
  return real != nullptr ? real->key_cache_stats() : KeyCacheStats{};
}

}  // namespace accountnet::crypto
