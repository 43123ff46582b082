// Shared plumbing of the performance ledger: clocks, the per-run Report,
// bench-local wall-clock spans, and the span decorator for CryptoProvider.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accountnet/core/verification_engine.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/obs/metrics.hpp"
#include "accountnet/util/stats.hpp"

namespace accountnet::ledger {

// ---------------------------------------------------------------------------
// Clocks and resource readings.

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double wall_s() { return static_cast<double>(mono_ns()) * 1e-9; }

/// CPU time of the calling thread — the one driving the workload. Worker
/// threads the backend spawns (the real provider's batch verify) are not
/// counted: their CPU time varies with scheduling on a shared host far more
/// than the work itself does.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

inline double median_of(const std::vector<double>& v) {
  Samples s;
  for (const double x : v) s.add(x);
  return s.median();  // 0 when empty
}

// ---------------------------------------------------------------------------
// What one workload run hands back to main().

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< scales the fixed amount of measured work
  bool trace = false;     ///< also run the traced legs (per-layer metrics)
  bool smoke = false;     ///< tiny sizes, every check, no timing meaning
  std::string out_dir = ".";
  std::string workload;
};

struct Report {
  std::map<std::string, double> values;  ///< metric name -> measured value
  std::vector<std::string> violations;   ///< failed correctness checks
  std::uint64_t attempted = 0;  ///< shuffles attempted in the measured windows
  std::uint64_t failed = 0;     ///< of those, failed (benign busy refusals excluded)
  std::size_t spans = 0;        ///< bench spans written by the traced run

  void set(const std::string& name, double v) { values[name] = v; }
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

void run_harness_spot(const RunArgs& args, Report& report);
void run_harness_verified(const RunArgs& args, Report& report);
void run_node_accountable(const RunArgs& args, Report& report);
void run_loopback_daemon(const RunArgs& args, Report& report);

// ---------------------------------------------------------------------------
// Bench-local wall-clock spans: recorded around the calls the bench makes
// into each layer, kept in memory (capped), and exported at the end through
// obs::Tracer, which takes caller-supplied timestamps.

class SpanLog {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit SpanLog(std::size_t cap = 50000) : cap_(cap), origin_ns_(mono_ns()) {}

  /// Opens a span under the innermost open one; kNone once the cap is hit.
  std::size_t begin(const char* name, const std::string& node);
  void end(std::size_t id);

  /// Writes <base>.spans.jsonl (accountnet-trace input) and
  /// <base>.perfetto.json; returns the number of spans written.
  std::size_t write(const std::string& base, std::uint64_t seed) const;

 private:
  struct Rec {
    const char* name;
    std::string node;
    std::size_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::size_t cap_;
  std::int64_t origin_ns_;
  std::vector<Rec> recs_;
  std::vector<std::size_t> open_;
};

// ---------------------------------------------------------------------------
// Crypto accounting: a span decorator the bench hands to Node / RealNetHost /
// the exchange replay in place of the raw backend. While `recording` is off
// every call passes straight through.

enum CryptoOp : std::size_t {
  kSign,
  kVrfProve,
  kVrfOutput,
  kVerify,
  kVrfVerify,
  kVerifyBatch,
  kKeygen,
  kCryptoOps
};

struct CryptoMeter {
  bool recording = false;
  SpanLog* log = nullptr;
  std::uint64_t calls[kCryptoOps] = {};
  std::int64_t ns[kCryptoOps] = {};
  std::uint64_t batch_jobs = 0;

  std::int64_t total_ns() const {
    std::int64_t t = 0;
    for (const auto v : ns) t += v;
    return t;
  }
  std::uint64_t total_ops() const {
    // Primitive operations: a batch counts as its jobs, not as one call.
    std::uint64_t t = batch_jobs;
    for (std::size_t op = 0; op < kCryptoOps; ++op) {
      if (op != kVerifyBatch && op != kKeygen) t += calls[op];
    }
    return t;
  }
};

/// Wraps `inner` (borrowed) so every primitive feeds `meter`.
std::unique_ptr<crypto::CryptoProvider> make_span_crypto(
    const crypto::CryptoProvider& inner, CryptoMeter& meter);

/// Fills the crypto.* per-layer metrics from a meter that recorded
/// `shuffles` completed shuffles over `wall_ns` of measured time.
void report_crypto(const CryptoMeter& meter, double shuffles, double wall_ns,
                   Report& report);

// ---------------------------------------------------------------------------
// Engine and node-timer roll-ups over many nodes.

using EngineStats = core::VerificationEngine::Stats;

/// Adds one engine's counters to `total`.
void accumulate(EngineStats& total, const EngineStats& s);

/// Fills the engine.* hit-rate, history and batch rows from engine counters
/// summed before and after the measured window.
void report_engine(const EngineStats& before, const EngineStats& after, Report& report);

/// Fills the whole-call exchange/engine timer rows from core::Node's own
/// timers ("node.make_offer", ...), averaged over every node's registry.
void report_node_timers(const std::vector<const obs::MetricsRegistry*>& registries,
                        Report& report);

}  // namespace accountnet::ledger
