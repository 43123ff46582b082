// Wave-parallel drive determinism (docs/PARALLELISM.md): every pinned
// scenario must produce a bit-identical digest at threads ∈ {1, 2, 4, 8} and
// with the classic sequential loop (threads = 0), under both crypto
// backends. The harness digest is additionally pinned to the seed-build
// constant, so "parallel == sequential == the pre-refactor library" is one
// transitive assertion.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "accountnet/obs/sink.hpp"
#include "../core/sampler_baseline_scenarios.hpp"

namespace accountnet::testing {
namespace {

constexpr std::size_t kThreadGrid[] = {1, 2, 4, 8};

// Same constant as sampler_baseline_test.cpp (captured from the seed build).
constexpr const char* kHarnessDigest =
    "6ba00388ec5516306dc1eb49d01e1e7960c9b1c7bce8c9872f74e8b7ebb6c1b6";

TEST(ParallelDeterminism, HarnessScenarioBitIdenticalAtEveryThreadCount) {
  ASSERT_EQ(guard_harness_digest(0), kHarnessDigest);
  for (const std::size_t t : kThreadGrid) {
    EXPECT_EQ(guard_harness_digest(t), kHarnessDigest) << "threads " << t;
  }
}

/// Every counter of a full scrape, by name. Verification runs on every
/// shuffle, so the engine's history and batch counters move.
std::map<std::string, std::uint64_t> scraped_counters(std::size_t threads,
                                                      bool real_crypto) {
  harness::ExperimentConfig c;
  c.network_size = real_crypto ? 40 : 160;
  c.f = 5;
  c.l = 3;
  c.lane_size = real_crypto ? 10 : 20;
  c.verify_fraction = 1.0;
  c.use_real_crypto = real_crypto;
  c.seed = 29;
  c.threads = threads;
  harness::NetworkSim net(c);
  net.run(real_crypto ? 6 : 10, [](std::size_t) {});

  obs::MemorySink sink;
  net.scrape_metrics(sink);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& row : sink.rows()) {
    if (row.sample.kind == obs::MetricKind::kCounter) {
      counters[row.sample.name] = row.sample.count;
    }
  }
  return counters;
}

// A wave verifies each offer on the responder's own engine, exactly as a
// wave of one does, so the whole scrape (the engine's history replays
// included) matches threads = 0.
TEST(ParallelDeterminism, CountersIdenticalAtEveryThreadCount) {
  for (const bool real_crypto : {false, true}) {
    const auto baseline = scraped_counters(0, real_crypto);
    ASSERT_GT(baseline.at("verify.history.full"), 0u) << "real " << real_crypto;
    for (const std::size_t t : {std::size_t{2}, std::size_t{4}}) {
      EXPECT_EQ(scraped_counters(t, real_crypto), baseline)
          << "threads " << t << ", real " << real_crypto;
    }
  }
}

/// Stress scenario for the wave machinery's flush triggers: churn events
/// (prologue flush), dead partners (inline flush + leave fan-out), injected
/// faults, coverage tracking and the separate overlay, folded into one
/// digest.
std::string churny_digest(std::size_t threads, bool real_crypto) {
  harness::ExperimentConfig c;
  c.network_size = real_crypto ? 48 : 160;
  c.f = 5;
  c.l = 3;
  c.pm = 0.2;
  c.malicious_mode = harness::MaliciousMode::kSeparateOverlay;
  c.lane_size = 24;
  c.history_limit = 32;
  c.verify_fraction = real_crypto ? 0.5 : 1.0;
  c.track_coverage = true;
  c.use_real_crypto = real_crypto;
  c.seed = 13;
  c.threads = threads;
  sim::FaultPlan plan;
  plan.seed = 5;
  sim::LinkFault lf;
  lf.loss = 0.05;  // wildcard rule: every leg of every shuffle may drop
  plan.links.push_back(lf);
  c.fault_plan = plan;

  harness::NetworkSim net(c);
  net.schedule_churn(c.network_size / 8, sim::seconds(25), sim::seconds(40));
  net.run(10, [](std::size_t) {});

  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    w.u64(net.is_alive(i) ? 1 : 0);
    if (!net.is_alive(i)) continue;
    const auto& st = net.node_state(i);
    w.u64(st.round());
    guard_fold_peers(w, st.peerset().sorted());
  }
  const auto& s = net.stats();
  w.u64(s.shuffles_attempted);
  w.u64(s.shuffles_completed);
  w.u64(s.shuffles_verified);
  w.u64(s.verification_failures);
  w.u64(s.dead_partner_hits);
  // Was HarnessStats::refused_cross_group, which could never fire; the
  // literal keeps the pinned digests.
  w.u64(0);
  w.u64(s.leave_reports);
  w.u64(s.fault_failures);
  const auto coverage = net.coverage_counts();
  w.u64(coverage.count());
  for (const double v : coverage.data()) {
    w.u64(static_cast<std::uint64_t>(v));
  }
  const Bytes bytes = std::move(w).take();
  return guard_hex(crypto::Sha256::hash(bytes));
}

TEST(ParallelDeterminism, ChurnFaultScenarioBitIdenticalFastCrypto) {
  const std::string baseline = churny_digest(0, false);
  for (const std::size_t t : kThreadGrid) {
    EXPECT_EQ(churny_digest(t, false), baseline) << "threads " << t;
  }
}

TEST(ParallelDeterminism, ChurnFaultScenarioBitIdenticalRealCrypto) {
  const std::string baseline = churny_digest(0, true);
  for (const std::size_t t : kThreadGrid) {
    EXPECT_EQ(churny_digest(t, true), baseline) << "threads " << t;
  }
}

/// Crash/restart recovery under the wave drive: the restart prologue must
/// settle pending waves before rebuilding the node from its journal.
std::string recovery_digest(std::size_t threads) {
  harness::ExperimentConfig c;
  c.network_size = 64;
  c.f = 5;
  c.l = 3;
  c.lane_size = 16;
  c.verify_fraction = 1.0;
  c.durable_nodes = true;
  c.checkpoint_interval = 16;
  c.seed = 17;
  c.threads = threads;
  harness::NetworkSim net(c);
  net.schedule_crash_restart(5, sim::seconds(35), sim::seconds(60));
  net.schedule_crash_restart(9, sim::seconds(45), sim::seconds(80));
  net.run(12, [](std::size_t) {});

  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& st = net.node_state(i);
    w.u64(st.round());
    guard_fold_peers(w, st.peerset().sorted());
  }
  w.u64(net.stats().shuffles_completed);
  w.u64(net.stats().verification_failures);
  w.u64(net.recovery_crashes());
  w.u64(net.recovery_restarts());
  w.u64(net.recovery_entries_replayed());
  const Bytes bytes = std::move(w).take();
  return guard_hex(crypto::Sha256::hash(bytes));
}

TEST(ParallelDeterminism, CrashRestartScenarioBitIdentical) {
  const std::string baseline = recovery_digest(0);
  for (const std::size_t t : kThreadGrid) {
    EXPECT_EQ(recovery_digest(t), baseline) << "threads " << t;
  }
}

/// Bootstrap picks while the network is still launching: two separate
/// overlays, nodes of both groups crashing and restarting mid-launch, and
/// churn kills landing among the launches. Every later join bootstraps
/// through whichever nodes are alive and joined in its own group at that
/// moment, so the digest pins the bootstrap choice at each transition.
std::string launch_phase_digest(std::size_t threads) {
  harness::ExperimentConfig c;
  c.network_size = 96;
  c.f = 5;
  c.l = 3;
  c.pm = 0.3;
  c.malicious_mode = harness::MaliciousMode::kSeparateOverlay;
  c.lane_size = 8;  // 12 lanes: launches run until about t = 80 s
  c.verify_fraction = 0.5;
  c.durable_nodes = true;
  c.seed = 23;
  c.threads = threads;
  harness::NetworkSim net(c);
  // Node i is the (i / 12)-th launch of lane i % 12, so nodes 0..11 are
  // up by t = 10 s and nodes 12..23 by t = 20 s.
  net.schedule_crash_restart(1, sim::seconds(12), sim::seconds(26));
  net.schedule_crash_restart(4, sim::seconds(21), sim::seconds(33));
  net.schedule_crash_restart(7, sim::seconds(15), sim::seconds(52));
  net.schedule_crash_restart(14, sim::seconds(24), sim::seconds(41));
  net.schedule_churn(10, sim::seconds(30), sim::seconds(30));
  net.run(10, [](std::size_t) {});

  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    w.u64(net.is_alive(i) ? 1 : 0);
    w.u64(net.is_malicious(i) ? 1 : 0);
    if (!net.is_alive(i)) continue;
    const auto& st = net.node_state(i);
    w.u64(st.round());
    guard_fold_peers(w, st.peerset().sorted());
  }
  const auto& s = net.stats();
  w.u64(s.shuffles_attempted);
  w.u64(s.shuffles_completed);
  w.u64(s.shuffles_verified);
  w.u64(s.verification_failures);
  w.u64(s.dead_partner_hits);
  // Was HarnessStats::refused_cross_group, which could never fire; the
  // literal keeps the pinned digests.
  w.u64(0);
  w.u64(s.leave_reports);
  w.u64(net.alive_count());
  w.u64(net.joined_count());
  w.u64(net.recovery_crashes());
  w.u64(net.recovery_restarts());
  w.u64(net.recovery_entries_replayed());
  const Bytes bytes = std::move(w).take();
  return guard_hex(crypto::Sha256::hash(bytes));
}

// Captured from the build that listed bootstrap candidates by a linear scan
// over every node; the order-statistic index must pick the same nodes.
constexpr const char* kLaunchPhaseDigest =
    "f450e6b230dbf07d9732e1e4669d229e795af9e0dcdeecca41f93e804547e652";

TEST(ParallelDeterminism, LaunchPhaseCrashChurnDigestPinned) {
  EXPECT_EQ(launch_phase_digest(0), kLaunchPhaseDigest);
  EXPECT_EQ(launch_phase_digest(2), kLaunchPhaseDigest) << "threads 2";
}

}  // namespace
}  // namespace accountnet::testing
