// Timing decorator: forwards every primitive unchanged, counts calls
// unconditionally, and feeds the six crypto timers only when enabled.
#include <gtest/gtest.h>

#include <vector>

#include "accountnet/crypto/timed.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {
namespace {

Bytes seed32(std::uint8_t fill) { return Bytes(32, fill); }

TEST(TimedCrypto, ForwardsResultsUnchanged) {
  obs::MetricsRegistry metrics;
  const auto plain = make_fast_crypto();
  const auto timed = make_timed_crypto(make_fast_crypto(), metrics);
  EXPECT_STREQ(timed->name(), plain->name());

  const Bytes seed = seed32(0xab);
  const auto ps = plain->make_signer(seed);
  const auto ts = timed->make_signer(seed);
  EXPECT_EQ(ps->public_key(), ts->public_key());

  const Bytes msg = bytes_of("timed crypto test message");
  const Bytes sig = ts->sign(msg);
  EXPECT_EQ(sig, ps->sign(msg));
  EXPECT_TRUE(timed->verify(ts->public_key(), msg, sig));
  EXPECT_FALSE(timed->verify(ts->public_key(), bytes_of("other"), sig));

  const Bytes proof = ts->vrf_prove(msg);
  EXPECT_EQ(ts->vrf_output(msg), ps->vrf_output(msg));
  const auto beta = timed->vrf_verify(ts->public_key(), msg, proof);
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(*beta, ts->vrf_output(msg));
}

TEST(TimedCrypto, CallCountersTickEvenWithTimingOff) {
  obs::MetricsRegistry metrics;
  const auto timed = make_timed_crypto(make_fast_crypto(), metrics);
  const auto signer = timed->make_signer(seed32(1));
  const Bytes msg = bytes_of("m");
  const Bytes sig = signer->sign(msg);
  (void)timed->verify(signer->public_key(), msg, sig);
  (void)signer->vrf_prove(msg);

  const auto count_of = [&](const char* name) {
    const auto id = metrics.find(name);
    return id ? metrics.counter_value(*id) : std::uint64_t{0};
  };
  EXPECT_EQ(count_of("crypto.keygen.calls"), 1u);
  EXPECT_EQ(count_of("crypto.sign.calls"), 1u);
  EXPECT_EQ(count_of("crypto.verify.calls"), 1u);
  EXPECT_EQ(count_of("crypto.vrf_prove.calls"), 1u);
  // Timing off: no timer observations recorded.
  EXPECT_EQ(metrics.timer_count(metrics.timer("crypto.sign")), 0u);
}

TEST(TimedCrypto, TimersRecordWhenEnabled) {
  obs::MetricsRegistry metrics;
  metrics.set_timing_enabled(true);
  const auto timed = make_timed_crypto(make_fast_crypto(), metrics);
  const auto signer = timed->make_signer(seed32(2));
  const Bytes msg = bytes_of("m");
  for (int i = 0; i < 3; ++i) (void)signer->sign(msg);
  EXPECT_EQ(metrics.timer_count(metrics.timer("crypto.sign")), 3u);
  EXPECT_EQ(metrics.timer_count(metrics.timer("crypto.keygen")), 1u);
}

TEST(TimedCrypto, VerifyBatchCountsJobsByKind) {
  obs::MetricsRegistry metrics;
  const auto timed = make_timed_crypto(make_fast_crypto(), metrics);
  const auto signer = timed->make_signer(seed32(3));
  const Bytes msg = bytes_of("m");
  const Bytes sig = signer->sign(msg);
  const Bytes proof = signer->vrf_prove(msg);
  const auto& pk = signer->public_key();
  std::vector<VerifyJob> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back({VerifyJob::Kind::kSignature, pk, msg, sig});
  for (int i = 0; i < 2; ++i) jobs.push_back({VerifyJob::Kind::kVrf, pk, msg, proof});
  std::vector<VerifyVerdict> verdicts(jobs.size());
  timed->verify_batch(jobs, verdicts);
  timed->verify_batch(std::span(jobs).first(1), std::span(verdicts).first(1));
  for (const auto& v : verdicts) EXPECT_TRUE(v.ok);

  // The base loop resolves each job through this decorator's verify() or
  // vrf_verify(), so the jobs are counted by kind as primitive calls; there
  // is no separate batch series.
  const auto count_of = [&](const char* name) {
    const auto id = metrics.find(name);
    return id ? metrics.counter_value(*id) : std::uint64_t{0};
  };
  EXPECT_EQ(count_of("crypto.verify.calls"), 4u);
  EXPECT_EQ(count_of("crypto.vrf_verify.calls"), 2u);
  EXPECT_FALSE(metrics.find("crypto.verify_batch.calls").has_value());
  EXPECT_FALSE(metrics.find("crypto.verify_batch").has_value());
}

TEST(TimedCrypto, NullInnerRejected) {
  obs::MetricsRegistry metrics;
  EXPECT_THROW(make_timed_crypto(nullptr, metrics), EnsureError);
}

}  // namespace
}  // namespace accountnet::crypto
