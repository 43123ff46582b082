// CryptoProvider::verify_batch, the base loop the performance ledger's
// decorator overrides: for both backends and every batch size, its verdicts
// are bit-identical to per-primitive verify()/vrf_verify() calls — mixed
// kinds, mixed validity, betas included.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "accountnet/crypto/provider.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

enum class Backend { kReal, kFast };

class BatchVerifyTest : public ::testing::TestWithParam<Backend> {
 public:
  BatchVerifyTest()
      : provider_(GetParam() == Backend::kReal ? make_real_crypto()
                                               : make_fast_crypto()) {}

  std::unique_ptr<Signer> signer(std::uint64_t n) {
    Bytes seed(32);
    Rng rng(n + 77);
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    return provider_->make_signer(seed);
  }

  static Bytes msg_for(std::size_t i) {
    Bytes m = {0x61, 0x6e};  // varied lengths exercise the chunking
    for (std::size_t k = 0; k <= i % 5; ++k) m.push_back(static_cast<std::uint8_t>(i + k));
    return m;
  }

  std::unique_ptr<CryptoProvider> provider_;
};

/// Builds `n` jobs alternating signature/VRF kinds; every third job is
/// corrupted (flipped signature byte, wrong key, or truncated proof).
struct JobSet {
  std::vector<Bytes> msgs;
  std::vector<Bytes> sigs;
  std::vector<PublicKeyBytes> pks;
  std::vector<VerifyJob> jobs;
};

JobSet build_jobs(BatchVerifyTest& t, CryptoProvider& provider, std::size_t n) {
  JobSet s;
  s.msgs.reserve(n);
  s.sigs.reserve(n);
  s.pks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto signer = t.signer(i % 7);
    s.pks.push_back(signer->public_key());
    s.msgs.push_back(BatchVerifyTest::msg_for(i));
    const bool vrf = (i % 2 == 1);
    s.sigs.push_back(vrf ? signer->vrf_prove(s.msgs.back())
                         : signer->sign(s.msgs.back()));
    switch (i % 3) {
      case 0:
        break;  // left valid
      case 1:
        s.sigs.back().front() ^= 0x40;  // corrupted proof/signature
        break;
      case 2:
        s.pks.back()[5] ^= 0x01;  // wrong key
        break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    VerifyJob j;
    j.kind = (i % 2 == 1) ? VerifyJob::Kind::kVrf : VerifyJob::Kind::kSignature;
    j.pk = s.pks[i];
    j.msg = BytesView(s.msgs[i].data(), s.msgs[i].size());
    j.sig = BytesView(s.sigs[i].data(), s.sigs[i].size());
    s.jobs.push_back(j);
  }
  (void)provider;
  return s;
}

TEST_P(BatchVerifyTest, MatchesPerPrimitiveCallsAtEverySize) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    const JobSet s = build_jobs(*this, *provider_, n);
    std::vector<VerifyVerdict> batched(n);
    provider_->verify_batch(s.jobs, batched);

    for (std::size_t i = 0; i < n; ++i) {
      const VerifyJob& j = s.jobs[i];
      if (j.kind == VerifyJob::Kind::kSignature) {
        const bool expect = provider_->verify(j.pk, j.msg, j.sig);
        EXPECT_EQ(batched[i].ok, expect) << "sig job " << i << " of " << n;
        EXPECT_EQ(batched[i].vrf_output, (std::array<std::uint8_t, 64>{}))
            << "sig job " << i << " must leave beta zeroed";
      } else {
        const auto expect = provider_->vrf_verify(j.pk, j.msg, j.sig);
        EXPECT_EQ(batched[i].ok, expect.has_value()) << "vrf job " << i << " of " << n;
        if (expect) {
          EXPECT_EQ(batched[i].vrf_output, *expect) << "beta mismatch, job " << i;
        } else {
          EXPECT_EQ(batched[i].vrf_output, (std::array<std::uint8_t, 64>{}));
        }
      }
    }
  }
}

TEST_P(BatchVerifyTest, SomeJobsPassAndSomeFail) {
  // Guard against a degenerate fixture: the mixed-validity grid must actually
  // exercise both verdict polarities.
  const JobSet s = build_jobs(*this, *provider_, 12);
  std::vector<VerifyVerdict> v(12);
  provider_->verify_batch(s.jobs, v);
  std::size_t ok = 0;
  for (const auto& r : v) ok += r.ok ? 1 : 0;
  EXPECT_GT(ok, 0u);
  EXPECT_LT(ok, 12u);
}

TEST_P(BatchVerifyTest, EmptyBatchIsANoop) {
  provider_->verify_batch({}, {});
}

TEST_P(BatchVerifyTest, OrderDoesNotChangeVerdicts) {
  const JobSet s = build_jobs(*this, *provider_, 9);
  std::vector<VerifyVerdict> fwd(9);
  provider_->verify_batch(s.jobs, fwd);

  std::vector<VerifyJob> rev(s.jobs.rbegin(), s.jobs.rend());
  std::vector<VerifyVerdict> bwd(9);
  provider_->verify_batch(rev, bwd);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(fwd[i].ok, bwd[8 - i].ok) << i;
    EXPECT_EQ(fwd[i].vrf_output, bwd[8 - i].vrf_output) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BatchVerifyTest,
                         ::testing::Values(Backend::kReal, Backend::kFast),
                         [](const auto& info) {
                           return info.param == Backend::kReal ? "real" : "fast";
                         });

}  // namespace
}  // namespace accountnet::crypto
