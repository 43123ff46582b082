// The per-thread draw memos under vrf_output/vrf_prove, one per backend:
// whichever order the calls come in, on whichever thread, with whatever
// interleaving of keys and alphas, every proof and output equals the one a
// fresh thread (an empty memo) computes, and for FastCrypto the keyed hash
// computed directly.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accountnet/crypto/provider.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

Bytes seed_bytes(std::uint64_t seed_val) {
  Rng rng(seed_val);
  Bytes seed(32);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

Ed25519KeyPair keypair(std::uint64_t seed_val) {
  return ed25519_keypair_from_seed(seed_bytes(seed_val));
}

struct Draw {
  VrfProof proof;
  VrfOutput output;
};

// Proof and output computed on a new thread, whose memo starts empty, each
// as that thread's first call.
Draw fresh_draw(const Ed25519KeyPair& kp, const Bytes& alpha) {
  Draw d{};
  std::thread([&] { d.proof = vrf_prove(kp, alpha); }).join();
  std::thread([&] { d.output = vrf_output(kp, alpha); }).join();
  return d;
}

TEST(VrfDrawMemo, OutputThenProveMatchesFreshThread) {
  const auto kp = keypair(41);
  for (int i = 0; i < 4; ++i) {
    const Bytes alpha = bytes_of("draw " + std::to_string(i));
    const Draw expected = fresh_draw(kp, alpha);
    EXPECT_EQ(vrf_output(kp, alpha), expected.output);  // miss
    EXPECT_EQ(vrf_prove(kp, alpha), expected.proof);    // hit
    EXPECT_EQ(vrf_output(kp, alpha), expected.output);  // hit again
    EXPECT_EQ(vrf_proof_to_hash(expected.proof), expected.output);
  }
}

TEST(VrfDrawMemo, ProveBeforeOutput) {
  const auto kp = keypair(42);
  const Bytes alpha = bytes_of("prove first");
  const Draw expected = fresh_draw(kp, alpha);
  EXPECT_EQ(vrf_prove(kp, alpha), expected.proof);    // miss
  EXPECT_EQ(vrf_output(kp, alpha), expected.output);  // hit
  EXPECT_EQ(vrf_prove(kp, alpha), expected.proof);    // hit
  ASSERT_TRUE(vrf_verify(kp.public_key, alpha, expected.proof).has_value());
}

TEST(VrfDrawMemo, InterleavedAlphas) {
  const auto kp = keypair(43);
  const Bytes a1 = bytes_of("alpha one");
  const Bytes a2 = bytes_of("alpha two");
  const Draw d1 = fresh_draw(kp, a1);
  const Draw d2 = fresh_draw(kp, a2);
  EXPECT_EQ(vrf_output(kp, a1), d1.output);
  EXPECT_EQ(vrf_output(kp, a2), d2.output);
  EXPECT_EQ(vrf_prove(kp, a1), d1.proof);  // a2 evicted a1: a miss
  EXPECT_EQ(vrf_prove(kp, a2), d2.proof);
  // An alpha that is a prefix of the remembered one is a different input.
  const Bytes prefix(a2.begin(), a2.end() - 1);
  EXPECT_EQ(vrf_output(kp, prefix), fresh_draw(kp, prefix).output);
  EXPECT_EQ(vrf_output(kp, Bytes{}), fresh_draw(kp, Bytes{}).output);
}

TEST(VrfDrawMemo, TwoKeypairsOnOneThread) {
  const auto kp1 = keypair(44);
  const auto kp2 = keypair(45);
  const Bytes alpha = bytes_of("shared alpha");
  const Draw d1 = fresh_draw(kp1, alpha);
  const Draw d2 = fresh_draw(kp2, alpha);
  EXPECT_EQ(vrf_output(kp1, alpha), d1.output);
  EXPECT_EQ(vrf_prove(kp2, alpha), d2.proof);  // same alpha, other key: a miss
  EXPECT_EQ(vrf_output(kp2, alpha), d2.output);
  EXPECT_EQ(vrf_prove(kp1, alpha), d1.proof);
  EXPECT_NE(d1.output, d2.output);
}

// One thread cycling through three keys, output then proof of each draw:
// every switch of key refills the memo and H's table, and every result
// equals a fresh thread's.
TEST(VrfDrawMemo, AlternatingKeysMatchFreshThread) {
  const std::array<Ed25519KeyPair, 3> kps{keypair(47), keypair(48), keypair(49)};
  for (int i = 0; i < 9; ++i) {
    const auto& kp = kps[static_cast<std::size_t>(i) % kps.size()];
    const Bytes alpha = bytes_of("alternate " + std::to_string(i / 2));
    const Draw expected = fresh_draw(kp, alpha);
    EXPECT_EQ(vrf_output(kp, alpha), expected.output) << i;
    EXPECT_EQ(vrf_prove(kp, alpha), expected.proof) << i;
  }
}

// The memo sits below Signer, so the provider's signer hits it too.
TEST(VrfDrawMemo, SignerOutputThenProve) {
  const auto signer = make_real_crypto()->make_signer(seed_bytes(46));
  const auto kp = keypair(46);
  const Bytes alpha = bytes_of("signer draw");
  const Draw expected = fresh_draw(kp, alpha);
  EXPECT_EQ(signer->vrf_output(alpha), expected.output);
  const Bytes proof = signer->vrf_prove(alpha);
  EXPECT_EQ(proof, Bytes(expected.proof.begin(), expected.proof.end()));
}

// Four threads draw at once, each interleaving its own keys and alphas in
// the sampler's output-then-prove order and in the reverse order; every
// result must equal the sequential one. Run under TSan in CI.
TEST(VrfDrawMemo, ConcurrentThreadsMatchSequential) {
  constexpr int kThreads = 4;
  constexpr int kDraws = 6;
  struct Job {
    Ed25519KeyPair kp;
    Bytes alpha;
    Draw expected;
    Draw got;
  };
  std::vector<std::vector<Job>> jobs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kDraws; ++i) {
      Job j{};
      j.kp = keypair(static_cast<std::uint64_t>(50 + (t + i) % 3));  // keys shared across threads
      j.alpha = bytes_of("t" + std::to_string(t) + " i" + std::to_string(i % 4));
      j.expected.proof = vrf_prove(j.kp, j.alpha);
      j.expected.output = vrf_proof_to_hash(j.expected.proof);
      jobs[static_cast<std::size_t>(t)].push_back(std::move(j));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&jobs, t] {
      for (auto& j : jobs[static_cast<std::size_t>(t)]) {
        if (t % 2 == 0) {
          j.got.output = vrf_output(j.kp, j.alpha);
          j.got.proof = vrf_prove(j.kp, j.alpha);
        } else {
          j.got.proof = vrf_prove(j.kp, j.alpha);
          j.got.output = vrf_output(j.kp, j.alpha);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& j : jobs[static_cast<std::size_t>(t)]) {
      EXPECT_EQ(j.got.proof, j.expected.proof) << "thread " << t;
      EXPECT_EQ(j.got.output, j.expected.output) << "thread " << t;
    }
  }
}

// FastCrypto's output and proof are both SHA-512("fastvrf" || pk || alpha);
// this is that hash with no memo in front of it.
Bytes fast_hash(const Signer& signer, const Bytes& alpha) {
  Sha512 h;
  h.update(bytes_of("fastvrf"));
  h.update(signer.public_key());
  h.update(alpha);
  const auto out = h.finish();
  return Bytes(out.begin(), out.end());
}

Bytes fast_output(const Signer& signer, const Bytes& alpha) {
  const auto out = signer.vrf_output(alpha);
  return Bytes(out.begin(), out.end());
}

std::unique_ptr<Signer> fast_signer(std::uint64_t seed_val) {
  return make_fast_crypto()->make_signer(seed_bytes(seed_val));
}

TEST(FastSignerMemo, OutputAndProofInBothOrders) {
  const auto signer = fast_signer(61);
  for (int i = 0; i < 4; ++i) {
    const Bytes alpha = bytes_of("fast draw " + std::to_string(i));
    const Bytes expected = fast_hash(*signer, alpha);
    if (i % 2 == 0) {
      EXPECT_EQ(fast_output(*signer, alpha), expected) << i;  // miss
      EXPECT_EQ(signer->vrf_prove(alpha), expected) << i;     // hit
    } else {
      EXPECT_EQ(signer->vrf_prove(alpha), expected) << i;     // miss
      EXPECT_EQ(fast_output(*signer, alpha), expected) << i;  // hit
    }
    EXPECT_EQ(signer->vrf_prove(alpha), expected) << i;  // hit again
  }
}

TEST(FastSignerMemo, InterleavedAlphas) {
  const auto signer = fast_signer(62);
  const Bytes a1 = bytes_of("alpha one");
  const Bytes a2 = bytes_of("alpha two");
  EXPECT_EQ(fast_output(*signer, a1), fast_hash(*signer, a1));
  EXPECT_EQ(fast_output(*signer, a2), fast_hash(*signer, a2));
  EXPECT_EQ(signer->vrf_prove(a1), fast_hash(*signer, a1));  // a2 evicted a1: a miss
  EXPECT_EQ(signer->vrf_prove(a2), fast_hash(*signer, a2));
  // An alpha that is a prefix of the remembered one is a different input.
  const Bytes prefix(a2.begin(), a2.end() - 1);
  EXPECT_EQ(fast_output(*signer, prefix), fast_hash(*signer, prefix));
  EXPECT_EQ(signer->vrf_prove(Bytes{}), fast_hash(*signer, Bytes{}));
}

TEST(FastSignerMemo, TwoKeysOnOneThread) {
  const auto s1 = fast_signer(63);
  const auto s2 = fast_signer(64);
  const Bytes alpha = bytes_of("shared alpha");
  EXPECT_EQ(fast_output(*s1, alpha), fast_hash(*s1, alpha));
  EXPECT_EQ(s2->vrf_prove(alpha), fast_hash(*s2, alpha));  // same alpha, other key: a miss
  EXPECT_EQ(fast_output(*s2, alpha), fast_hash(*s2, alpha));
  EXPECT_EQ(s1->vrf_prove(alpha), fast_hash(*s1, alpha));
  EXPECT_NE(fast_hash(*s1, alpha), fast_hash(*s2, alpha));
  // The provider verifies what either signer proved.
  const auto provider = make_fast_crypto();
  EXPECT_TRUE(provider->vrf_verify(s1->public_key(), alpha, s1->vrf_prove(alpha)));
  EXPECT_FALSE(provider->vrf_verify(s2->public_key(), alpha, s1->vrf_prove(alpha)));
}

// Four threads draw at once through signers they share, each interleaving
// keys and alphas in the sampler's output-then-prove order and in the
// reverse order; every result must equal the keyed hash. Run under TSan in
// CI.
TEST(FastSignerMemo, ConcurrentThreadsMatchUnmemoizedHash) {
  constexpr int kThreads = 4;
  constexpr int kDraws = 64;
  const std::array<std::unique_ptr<Signer>, 3> signers{fast_signer(65), fast_signer(66),
                                                       fast_signer(67)};
  struct Job {
    const Signer* signer;
    Bytes alpha;
    Bytes expected;
    Bytes output;
    Bytes proof;
  };
  std::vector<std::vector<Job>> jobs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kDraws; ++i) {
      Job j{};
      j.signer = signers[static_cast<std::size_t>(t + i) % signers.size()].get();
      j.alpha = bytes_of("t" + std::to_string(t) + " i" + std::to_string(i % 5));
      j.expected = fast_hash(*j.signer, j.alpha);
      jobs[static_cast<std::size_t>(t)].push_back(std::move(j));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&jobs, t] {
      for (auto& j : jobs[static_cast<std::size_t>(t)]) {
        if (t % 2 == 0) {
          j.output = fast_output(*j.signer, j.alpha);
          j.proof = j.signer->vrf_prove(j.alpha);
        } else {
          j.proof = j.signer->vrf_prove(j.alpha);
          j.output = fast_output(*j.signer, j.alpha);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& j : jobs[static_cast<std::size_t>(t)]) {
      EXPECT_EQ(j.output, j.expected) << "thread " << t;
      EXPECT_EQ(j.proof, j.expected) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace accountnet::crypto
