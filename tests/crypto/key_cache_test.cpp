// The real backend's cache of decoded verification keys: verdicts and beta
// equal the uncached free functions whether a key is new to the provider or
// already has its comb table; the cache stays within its bound, builds a
// table only for a key seen twice, never thrashes on a stream of new keys,
// and serves concurrent verifiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/rng.hpp"
#include "vrf_forgery.hpp"

namespace accountnet::crypto {
namespace {

using detail::key_cache_stats;
using detail::kKeyCacheCapacity;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

PublicKeyBytes to_key(BytesView b) {
  PublicKeyBytes pk{};
  std::copy(b.begin(), b.end(), pk.begin());
  return pk;
}

// One signature check and one VRF check on the same key.
struct Case {
  PublicKeyBytes pk;
  Bytes msg;
  Bytes sig;
  Bytes alpha;
  Bytes proof;
};

// Honest keys with valid, tampered and malformed signatures and proofs;
// keys that do not decode, keys with y >= p, small-order keys, and the
// identity-key VRF forgery.
std::vector<Case> corpus() {
  Rng rng(311);
  std::vector<Case> out;
  for (int k = 0; k < 4; ++k) {
    const auto kp = ed25519_keypair_from_seed(random_bytes(rng, 32));
    for (int i = 0; i < 6; ++i) {
      Case c;
      c.pk = kp.public_key;
      c.msg = random_bytes(rng, 1 + rng.next_u64() % 80);
      c.alpha = random_bytes(rng, rng.next_u64() % 40);
      const auto sig = ed25519_sign(kp, c.msg);
      const auto proof = vrf_prove(kp, c.alpha);
      c.sig.assign(sig.begin(), sig.end());
      c.proof.assign(proof.begin(), proof.end());
      const auto at = [&](std::size_t from, std::size_t n) { return from + rng.next_u64() % n; };
      switch (i) {
        case 0:  // both valid
          break;
        case 1:  // R, Gamma
          c.sig[at(0, 32)] ^= 0x10;
          c.proof[at(0, 32)] ^= 0x10;
          break;
        case 2:  // S, s
          c.sig[at(32, 32)] ^= 0x01;
          c.proof[at(48, 32)] ^= 0x01;
          break;
        case 3:  // message, c
          c.msg.push_back(0);
          c.proof[at(32, 16)] ^= 0x80;
          break;
        case 4:  // S, s >= L
          c.sig[63] |= 0xe0;
          c.proof[79] |= 0xe0;
          break;
        case 5:  // short signature, other alpha
          c.sig.pop_back();
          c.alpha.push_back(1);
          break;
      }
      out.push_back(std::move(c));
    }
  }
  // Keys that fail to decode: random strings off the curve, y = p and y = p + 1.
  const auto honest = ed25519_keypair_from_seed(random_bytes(rng, 32));
  const Bytes msg = bytes_of("decoding");
  const auto sig = ed25519_sign(honest, msg);
  const auto proof = vrf_prove(honest, msg);
  std::vector<Bytes> bad_keys = {
      from_hex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
      from_hex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f")};
  while (bad_keys.size() < 5) {
    Bytes b = random_bytes(rng, 32);
    if (!VerifyKey::decode(b)) bad_keys.push_back(b);
  }
  // Small-order keys, each with the identity-key forgery.
  const std::vector<Bytes> small_order = {
      from_hex("0100000000000000000000000000000000000000000000000000000000000000"),
      from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
      from_hex("0000000000000000000000000000000000000000000000000000000000000000"),
      from_hex("0000000000000000000000000000000000000000000000000000000000000080"),
      from_hex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05")};
  for (const auto& pk : bad_keys) {
    out.push_back(Case{to_key(pk), msg, Bytes(sig.begin(), sig.end()), msg,
                       Bytes(proof.begin(), proof.end())});
  }
  for (const auto& pk : small_order) {
    out.push_back(Case{to_key(pk), msg, Bytes(sig.begin(), sig.end()), msg,
                       test::forge_identity_key_proof(pk, msg)});
  }
  return out;
}

// A signature whose R has y = p: it fails to decode, so a verification
// through the provider costs little more than the key lookup.
Bytes cheap_bad_signature() {
  Bytes sig = from_hex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  sig.resize(64, 0);
  return sig;
}

// `n` distinct keys that decode and do not have small order.
std::vector<PublicKeyBytes> decodable_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PublicKeyBytes> out;
  while (out.size() < n) {
    const Bytes b = random_bytes(rng, 32);
    const auto key = VerifyKey::decode(b);
    if (key && !key->small_order()) out.push_back(to_key(b));
  }
  return out;
}

TEST(KeyCache, FreshWarmAndFreeFunctionsAgree) {
  const auto cases = corpus();
  const auto warm = make_real_crypto();
  const Bytes junk = cheap_bad_signature();
  for (const auto& c : cases) {  // second use: every decodable key gets a table
    for (int i = 0; i < 2; ++i) (void)warm->verify(c.pk, c.msg, junk);
  }
  EXPECT_EQ(key_cache_stats(*warm).keys, 4u + 5u);  // 4 honest and 5 small-order keys
  EXPECT_EQ(key_cache_stats(*warm).tables_built, 4u + 5u);

  std::size_t sig_ok = 0, vrf_ok = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const bool expected_sig = ed25519_verify(c.pk, c.msg, c.sig);
    const auto expected_beta = vrf_verify(c.pk, c.alpha, c.proof);
    sig_ok += expected_sig ? 1 : 0;
    vrf_ok += expected_beta ? 1 : 0;

    const auto fresh = make_real_crypto();
    EXPECT_EQ(fresh->verify(c.pk, c.msg, c.sig), expected_sig) << "case " << i;
    EXPECT_EQ(fresh->vrf_verify(c.pk, c.alpha, c.proof), expected_beta) << "case " << i;
    EXPECT_EQ(warm->verify(c.pk, c.msg, c.sig), expected_sig) << "case " << i;
    EXPECT_EQ(warm->vrf_verify(c.pk, c.alpha, c.proof), expected_beta) << "case " << i;

    const auto key = VerifyKey::decode(c.pk);
    if (!key) continue;
    const VerifyKey tabled = key->with_table();
    EXPECT_EQ(ed25519_verify(tabled, c.msg, c.sig), expected_sig) << "case " << i;
    EXPECT_EQ(vrf_verify(tabled, c.alpha, c.proof), expected_beta) << "case " << i;
  }
  EXPECT_EQ(sig_ok, 4u);  // one valid signature and one valid proof per honest key
  EXPECT_EQ(vrf_ok, 4u);
}

TEST(KeyCache, KeyUsedOnceBuildsNoTable) {
  const auto provider = make_real_crypto();
  Rng rng(312);
  const auto kp = ed25519_keypair_from_seed(random_bytes(rng, 32));
  const Bytes msg = bytes_of("once");
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_TRUE(provider->verify(kp.public_key, msg, sig));
  EXPECT_EQ(key_cache_stats(*provider).keys, 1u);
  EXPECT_EQ(key_cache_stats(*provider).tables_built, 0u);
  EXPECT_TRUE(provider->verify(kp.public_key, msg, sig));  // second use
  EXPECT_EQ(key_cache_stats(*provider).tables_built, 1u);
  EXPECT_TRUE(provider->verify(kp.public_key, msg, sig));
  EXPECT_TRUE(provider->vrf_verify(kp.public_key, msg, vrf_prove(kp, msg)).has_value());
  EXPECT_EQ(key_cache_stats(*provider).keys, 1u);
  EXPECT_EQ(key_cache_stats(*provider).tables_built, 1u);

  // A key that does not decode is never cached.
  const auto off_curve =
      to_key(from_hex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"));
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(provider->verify(off_curve, msg, sig));
  EXPECT_EQ(key_cache_stats(*provider).keys, 1u);
  EXPECT_EQ(key_cache_stats(*provider).tables_built, 1u);

  // The fast backend has no cache.
  EXPECT_EQ(key_cache_stats(*make_fast_crypto()).keys, 0u);
}

// Keys cycled round-robin, four times as many as the cache holds: the cache
// never exceeds its bound, and no key survives until its next turn, so no
// lookup builds a table.
TEST(KeyCache, RoundRobinOverFourTimesTheBoundStaysBounded) {
  const auto provider = make_real_crypto();
  const auto keys = decodable_keys(4 * kKeyCacheCapacity, 313);
  const Bytes junk = cheap_bad_signature();
  const Bytes msg = bytes_of("round robin");
  for (int round = 0; round < 3; ++round) {
    for (const auto& pk : keys) {
      EXPECT_FALSE(provider->verify(pk, msg, junk));
      ASSERT_LE(key_cache_stats(*provider).keys, kKeyCacheCapacity);
    }
  }
  EXPECT_EQ(key_cache_stats(*provider).keys, kKeyCacheCapacity);
  EXPECT_EQ(key_cache_stats(*provider).tables_built, 0u);
}

// A full cache of keys in steady use keeps them while a stream of new keys,
// four times the bound, passes through: each key's table is built once.
TEST(KeyCache, NewKeysDoNotEvictKeysInUse) {
  const auto provider = make_real_crypto();
  const auto hot = decodable_keys(kKeyCacheCapacity, 314);
  const auto stream = decodable_keys(4 * kKeyCacheCapacity, 315);
  const Bytes junk = cheap_bad_signature();
  const Bytes msg = bytes_of("hot keys");
  for (int i = 0; i < 2; ++i) {
    for (const auto& pk : hot) (void)provider->verify(pk, msg, junk);
  }
  EXPECT_EQ(key_cache_stats(*provider).tables_built, kKeyCacheCapacity);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    (void)provider->verify(stream[i], msg, junk);
    (void)provider->verify(hot[(2 * i) % hot.size()], msg, junk);
    (void)provider->verify(hot[(2 * i + 1) % hot.size()], msg, junk);
  }
  EXPECT_EQ(key_cache_stats(*provider).keys, kKeyCacheCapacity);
  EXPECT_EQ(key_cache_stats(*provider).tables_built, kKeyCacheCapacity);
}

// Four threads verify through one provider, over the same few keys, valid
// and tampered inputs mixed, directly and through verify_batch; every
// result equals the uncached free function's, and each key's table is
// built at most once. Run under TSan in CI.
TEST(KeyCache, ConcurrentVerifiersShareOneCache) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 3;
  Rng rng(316);
  struct Check {
    VerifyJob job;
    Bytes msg;
    Bytes sig;
    VerifyVerdict expected;
  };
  std::vector<Check> checks;
  for (int k = 0; k < kKeys; ++k) {
    const auto kp = ed25519_keypair_from_seed(random_bytes(rng, 32));
    for (int i = 0; i < 4; ++i) {
      Check c;
      c.msg = random_bytes(rng, 24);
      c.job.pk = kp.public_key;
      if (i % 2 == 0) {
        const auto sig = ed25519_sign(kp, c.msg);
        c.sig.assign(sig.begin(), sig.end());
        c.job.kind = VerifyJob::Kind::kSignature;
      } else {
        const auto proof = vrf_prove(kp, c.msg);
        c.sig.assign(proof.begin(), proof.end());
        c.job.kind = VerifyJob::Kind::kVrf;
      }
      if (i >= 2) c.sig[5] ^= 0x04;
      checks.push_back(std::move(c));
    }
  }
  for (auto& c : checks) {
    c.job.msg = c.msg;
    c.job.sig = c.sig;
    if (c.job.kind == VerifyJob::Kind::kSignature) {
      c.expected.ok = ed25519_verify(c.job.pk, c.msg, c.sig);
    } else {
      const auto beta = vrf_verify(c.job.pk, c.msg, c.sig);
      c.expected.ok = beta.has_value();
      if (beta) c.expected.vrf_output = *beta;
    }
  }

  const auto provider = make_real_crypto();
  std::vector<std::vector<VerifyVerdict>> got(kThreads);
  std::vector<std::vector<VerifyVerdict>> batched(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = got[static_cast<std::size_t>(t)];
      for (std::size_t n = 0; n < 2 * checks.size(); ++n) {
        const auto& c = checks[(n + static_cast<std::size_t>(t) * 5) % checks.size()];
        VerifyVerdict v;
        if (c.job.kind == VerifyJob::Kind::kSignature) {
          v.ok = provider->verify(c.job.pk, c.msg, c.sig);
        } else {
          const auto beta = provider->vrf_verify(c.job.pk, c.msg, c.sig);
          v.ok = beta.has_value();
          if (beta) v.vrf_output = *beta;
        }
        mine.push_back(v);
      }
      std::vector<VerifyJob> jobs;
      for (const auto& c : checks) jobs.push_back(c.job);
      batched[static_cast<std::size_t>(t)].resize(jobs.size());
      provider->verify_batch(jobs, batched[static_cast<std::size_t>(t)]);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto& mine = got[static_cast<std::size_t>(t)];
    for (std::size_t n = 0; n < mine.size(); ++n) {
      const auto& c = checks[(n + static_cast<std::size_t>(t) * 5) % checks.size()];
      EXPECT_EQ(mine[n].ok, c.expected.ok) << "thread " << t << " check " << n;
      EXPECT_EQ(mine[n].vrf_output, c.expected.vrf_output) << "thread " << t << " check " << n;
    }
    for (std::size_t i = 0; i < checks.size(); ++i) {
      EXPECT_EQ(batched[static_cast<std::size_t>(t)][i].ok, checks[i].expected.ok);
      EXPECT_EQ(batched[static_cast<std::size_t>(t)][i].vrf_output, checks[i].expected.vrf_output);
    }
  }
  EXPECT_EQ(key_cache_stats(*provider).keys, static_cast<std::size_t>(kKeys));
  EXPECT_LE(key_cache_stats(*provider).tables_built, static_cast<std::size_t>(kKeys));
}

}  // namespace
}  // namespace accountnet::crypto
