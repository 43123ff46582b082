// scale_soak: throughput of the wave-parallel harness drive
// (docs/PARALLELISM.md) across thread counts, with a built-in determinism
// cross-check — every thread count must reproduce the same state digest, or
// the bench exits non-zero.
//
// Default: a small CI-sized grid (gated by tools/benchdiff against
// baselines/BENCH_scale.json — the digest and shuffle columns carry the
// regression signal; wall-clock columns are informational and skipped by
// the tolerance rules, since runners differ in core count).
//
// Every cell runs kRepeats times, each repeat sweeping the whole thread grid,
// so a host that drifts during the run spreads over every thread count
// alike. The wall-clock fields are the medians over the repeats (speedups
// pair each repeat with its own sequential run), with the quartiles beside
// them; every repeat must reproduce the same digest.
// --full: the 100k–1M-node scale grid (FastCrypto, slimmed history).
#include <chrono>

#include "accountnet/crypto/sha256.hpp"
#include "accountnet/obs/sink.hpp"
#include "accountnet/wire/codec.hpp"
#include "bench_sim.hpp"

namespace {

using namespace accountnet;

/// Protocol-state fold (same shape as the parallel-determinism tests):
/// aliveness, membership, per-node round + sorted peerset, cumulative stats.
std::array<std::uint8_t, 32> state_digest(const harness::NetworkSim& net) {
  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    w.u64(net.is_alive(i) ? 1 : 0);
    w.u64(net.is_joined(i) ? 1 : 0);
    const auto& st = net.node_state(i);
    w.u64(st.round());
    const auto peers = st.peerset().sorted();
    w.u64(peers.size());
    for (const auto& p : peers) w.str(p.addr);
  }
  const auto& s = net.stats();
  w.u64(s.shuffles_attempted);
  w.u64(s.shuffles_completed);
  w.u64(s.shuffles_verified);
  w.u64(s.verification_failures);
  const Bytes bytes = std::move(w).take();
  return crypto::Sha256::hash(bytes);
}

std::uint32_t word(const std::array<std::uint8_t, 32>& d, std::size_t off) {
  return (std::uint32_t{d[off]} << 24) | (std::uint32_t{d[off + 1]} << 16) |
         (std::uint32_t{d[off + 2]} << 8) | std::uint32_t{d[off + 3]};
}

constexpr std::size_t kRepeats = 3;

struct RowResult {
  std::array<std::uint8_t, 32> digest;
  std::uint64_t attempted = 0, completed = 0, verified = 0, failures = 0;
  double wall_ms = 0.0;
};

RowResult run_cell(std::size_t v, std::size_t threads, const bench::BenchArgs& args) {
  auto config = bench::scale_config(v, args);
  config.threads = threads;
  // Compress the launch schedule: this bench measures steady-state shuffle
  // throughput, not Fig. 11's growth curve.
  config.launch_spacing_max = sim::seconds(1);
  if (v >= 1000000) config.history_limit = 8;  // ~1 GB/100k nodes otherwise

  harness::NetworkSim net(config);
  net.run(bench::steady_rounds(config, 4), nullptr);  // launch + settle

  const std::size_t measured = v >= 1000000 ? 6 : 12;
  const auto before = net.stats();
  const auto t0 = std::chrono::steady_clock::now();
  net.run(measured, nullptr);
  const auto t1 = std::chrono::steady_clock::now();

  RowResult r;
  r.digest = state_digest(net);
  const auto& after = net.stats();
  r.attempted = after.shuffles_attempted - before.shuffles_attempted;
  r.completed = after.shuffles_completed - before.shuffles_completed;
  r.verified = after.shuffles_verified - before.shuffles_verified;
  r.failures = after.verification_failures - before.verification_failures;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
          .count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace accountnet;
  const auto args = bench::parse_args(argc, argv);
  bench::print_header("scale_soak",
                      "parallel-drive scaling (throughput vs --threads, "
                      "bit-identical results)",
                      args.full);

  const std::vector<std::size_t> sizes =
      args.full ? std::vector<std::size_t>{100000, 1000000}
                : std::vector<std::size_t>{2000, 10000};
  // threads = 0 is the sequential drive (the reference the waves must
  // reproduce bit-for-bit, and the speedup denominator); threads = 1 runs the
  // same path; 2..8 batch events into waves on the pool.
  const std::vector<std::size_t> thread_grid =
      args.full ? std::vector<std::size_t>{0, 2, 4, 8}
                : std::vector<std::size_t>{0, 1, 2, 4, 8};

  obs::JsonLinesSink sink("BENCH_scale.json");
  bool determinism_ok = true;
  for (const auto v : sizes) {
    Table t({"threads", "shuffles (measured)", "wall ms (q1-q3)", "shuffles/s (wall)",
             "speedup vs seq (q1-q3)", "digest"});
    // runs[k][rep]: thread_grid[k]'s cell in repeat rep.
    std::vector<std::vector<RowResult>> runs(thread_grid.size());
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      for (std::size_t k = 0; k < thread_grid.size(); ++k) {
        runs[k].push_back(run_cell(v, thread_grid[k], args));
      }
    }
    // runs.front() holds the threads = 0 cells.
    const auto& seq = runs.front();
    for (std::size_t k = 0; k < thread_grid.size(); ++k) {
      const std::size_t threads = thread_grid[k];
      Samples walls, speedups;
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        const RowResult& c = runs[k][rep];
        if (c.digest != seq.front().digest) determinism_ok = false;
        walls.add(c.wall_ms);
        speedups.add(c.wall_ms > 0.0 ? seq[rep].wall_ms / c.wall_ms : 0.0);
      }
      const RowResult& r = runs[k].front();
      const double wall_ms = walls.median();
      const double wall_q1 = walls.percentile(25), wall_q3 = walls.percentile(75);
      const double speedup = speedups.median();
      const double speedup_q1 = speedups.percentile(25);
      const double speedup_q3 = speedups.percentile(75);
      const double per_sec =
          wall_ms > 0.0 ? static_cast<double>(r.completed) / (wall_ms / 1000.0) : 0.0;
      char hex[9];
      std::snprintf(hex, sizeof(hex), "%08x",
                    static_cast<unsigned>(word(r.digest, 0)));
      t.add_row({std::to_string(threads), std::to_string(r.completed),
                 Table::num(wall_ms, 1) + " (" + Table::num(wall_q1, 1) + "-" +
                     Table::num(wall_q3, 1) + ")",
                 Table::num(per_sec, 0),
                 Table::num(speedup, 2) + " (" + Table::num(speedup_q1, 2) + "-" +
                     Table::num(speedup_q3, 2) + ")",
                 hex});
      // String fields form the benchdiff row key; numeric fields carry the
      // gated values. Wall-clock fields are skipped by tolerances.json —
      // speedup_vs_1t (speedup over threads = 0; the field keeps its name)
      // is informational (single-core runners report ~1). The _q1/_q3
      // fields are absent from the baseline, which benchdiff allows.
      sink.raw_line(
          "{\"bench\":\"scale_soak\",\"network_size\":\"" + std::to_string(v) +
          "\",\"threads\":\"" + std::to_string(threads) +
          "\",\"rounds\":" + std::to_string(v >= 1000000 ? 6 : 12) +
          ",\"shuffles_attempted\":" + std::to_string(r.attempted) +
          ",\"shuffles_completed\":" + std::to_string(r.completed) +
          ",\"shuffles_verified\":" + std::to_string(r.verified) +
          ",\"verification_failures\":" + std::to_string(r.failures) +
          ",\"digest_hi32\":" + std::to_string(word(r.digest, 0)) +
          ",\"digest_lo32\":" + std::to_string(word(r.digest, 4)) +
          ",\"wall_ms\":" + Table::num(wall_ms, 3) +
          ",\"wall_ms_q1\":" + Table::num(wall_q1, 3) +
          ",\"wall_ms_q3\":" + Table::num(wall_q3, 3) +
          ",\"shuffles_per_sec_wall\":" + Table::num(per_sec, 3) +
          ",\"speedup_vs_1t\":" + Table::num(speedup, 4) +
          ",\"speedup_vs_1t_q1\":" + Table::num(speedup_q1, 4) +
          ",\"speedup_vs_1t_q3\":" + Table::num(speedup_q3, 4) + "}");
    }
    std::printf("\n|V| = %zu (digest column must be constant down the table)\n%s", v,
                t.to_string().c_str());
  }

  if (!determinism_ok) {
    std::printf("\nFAIL: thread counts or repeats disagree on the state digest\n");
    return 1;
  }
  std::printf("\nall thread counts and repeats bit-identical; wrote BENCH_scale.json\n");
  return 0;
}
