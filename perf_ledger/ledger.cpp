// ledger: the performance ledger.
//
// One binary, one named workload per process. Every layer is reached only
// through public calls — harness::NetworkSim, core::Node over
// sim::SimNetwork, net::RealNetHost on one net::EventLoop, the
// core/shuffle.hpp exchange functions, core::VerificationEngine and
// crypto::CryptoProvider — and timed from outside; nothing under src/ or
// include/ knows the ledger exists. PERFORMANCE.md (next to this file)
// explains the workloads and metrics and records the measured baselines.
//
//   ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//   ledger --smoke
//
// A run prints every metric as "name value unit", writes one fresh JSON
// record to DIR/ledger_<workload>.json (plus .spans.jsonl and .perfetto.json
// when traced), and ends with one JSON line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A failed correctness check exits 1; a bad argument exits 2.
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "accountnet/obs/sink.hpp"
#include "common.hpp"

namespace accountnet::ledger {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json at the repository root. Every run reports every
// metric of its set; a per-layer metric of a layer the workload never
// reaches reads 0 (PERFORMANCE.md lists which workload feeds which row).
constexpr MetricDef kEndToEnd[] = {
    {"shuffles_per_s", "1/s"},
    {"cpu_ms_per_shuffle", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"crypto.sign.ns_per_op", "ns"},
    {"crypto.vrf_prove.ns_per_op", "ns"},
    {"crypto.verify.ns_per_op", "ns"},
    {"crypto.vrf_verify.ns_per_op", "ns"},
    {"crypto.verify_batch.jobs_per_call", "count"},
    {"crypto.ops_per_shuffle", "count"},
    {"crypto.busy_frac", "fraction"},
    {"engine.cache_hit_rate", "fraction"},
    {"engine.sig_hit_rate", "fraction"},
    {"engine.vrf_hit_rate", "fraction"},
    {"engine.history_full_frac", "fraction"},
    {"engine.batch_jobs_per_call", "count"},
    {"engine.verify_offer.us", "us"},
    {"engine.verify_response.us", "us"},
    {"exchange.choose_partner.us", "us"},
    {"exchange.make_offer.us", "us"},
    {"exchange.make_response_and_commit.us", "us"},
    {"exchange.apply_offer_outcome.us", "us"},
    {"exchange.suffix_entries_per_offer", "count"},
    {"harness.us_per_shuffle", "us"},
    {"harness.self_us_per_shuffle", "us"},
    {"harness.shuffles_per_s_t2", "1/s"},
    {"harness.speedup_t2", "ratio"},
    {"harness.epoch_batch.jobs_per_flush", "count"},
    {"harness.epoch_batch.preloaded_frac", "fraction"},
    {"sim.events_per_s", "1/s"},
    {"sim.events_per_shuffle", "count"},
    {"node.msgs_per_shuffle", "count"},
    {"node.bytes_per_shuffle", "bytes"},
    {"node.self_us_per_shuffle", "us"},
    {"node.accusations_created", "count"},
    {"node.rpc_retries", "count"},
    {"node.busy_reject_frac", "fraction"},
    {"node.convict_latency_s", "s"},
    {"wire.envelope_encode_ns", "ns"},
    {"wire.envelope_decode_ns", "ns"},
    {"wire.frame_parse_ns", "ns"},
    {"wire.offer_decode_ns", "ns"},
    {"net.frames_per_shuffle", "count"},
    {"net.loop_busy_frac", "fraction"},
    {"net.loop_lag_p50_ms", "ms"},
    {"net.loop_lag_p95_ms", "ms"},
    {"net.shuffle_p50_ms", "ms"},
    {"net.shuffle_p95_ms", "ms"},
    {"net.shuffle_samples", "count"},
    {"net.reconnects", "count"},
    {"net.backpressure_dropped", "count"},
    {"trace.overhead_frac", "fraction"},
    {"trace.attributed_frac", "fraction"},
};

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"harness_spot", run_harness_spot},
    {"harness_verified", run_harness_verified},
    {"node_accountable", run_node_accountable},
    {"loopback_daemon", run_loopback_daemon},
};

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
               "[--out DIR]\n"
               "       ledger --smoke\n"
               "workloads: harness_spot harness_verified node_accountable "
               "loopback_daemon\n"
               "  --seed N      input seed (default 1)\n"
               "  --seconds S   measured work, sized to take about S seconds (default 10)\n"
               "  --trace 0|1   1: also run the traced legs and report per-layer metrics\n"
               "  --out DIR     where the JSON record and span files go (default .)\n"
               "  --smoke       every workload at tiny size, checks only, no timing\n");
  return out == stdout ? 0 : 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0';
}

bool parse_seconds(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  out = std::strtod(s, &end);
  return *end == '\0' && std::isfinite(out) && out > 0 && out <= 600;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

unsigned nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N], const Report& r, bool with_units) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = r.values.find(defs[i].name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    if (i > 0) out += ",";
    out += "\"" + std::string(defs[i].name) + "\":";
    out += with_units ? "{\"value\":" + num(v) + ",\"unit\":\"" + defs[i].unit + "\"}"
                      : num(v);
  }
  return out + "}";
}

/// One fresh record per run (opened "w", so reruns never append).
void write_record(const RunArgs& args, const Report& r) {
  const std::string path = args.out_dir + "/ledger_" + args.workload + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
    return;
  }
  {
    obs::JsonLinesSink sink(f);
    std::string violations = "[";
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
      violations += (i > 0 ? ",\"" : "\"") + obs::json_escape(r.violations[i]) + "\"";
    }
    violations += "]";
    sink.raw_line("{\"bench\":\"ledger\",\"workload\":\"" + args.workload +
                  "\",\"seed\":" + std::to_string(args.seed) +
                  ",\"seconds\":" + num(args.seconds) +
                  ",\"trace\":" + (args.trace ? "1" : "0") +
                  ",\"git_sha\":\"" LEDGER_GIT_SHA "\",\"build_type\":\"" LEDGER_BUILD_TYPE
                  "\",\"compiler\":\"" + obs::json_escape(__VERSION__) +
                  "\",\"nproc\":" + std::to_string(nproc()) +
                  ",\"correct\":" + (r.violations.empty() ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) +
                  ",\"violations\":" + violations +
                  ",\"end_to_end\":" + metrics_json(kEndToEnd, r, false) +
                  (args.trace ? ",\"per_layer\":" + metrics_json(kPerLayer, r, false)
                              : std::string()) +
                  "}");
  }
  std::fclose(f);
}

int run_workload(const RunArgs& args) {
  const Workload* w = nullptr;
  for (const auto& k : kWorkloads) {
    if (args.workload == k.name) w = &k;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "ledger: unknown workload '%s'\n", args.workload.c_str());
    return usage(stderr);
  }
  Report r;
  w->run(args, r);
  for (const auto& d : kEndToEnd) {
    r.check(r.values.contains(d.name), std::string("metric not measured: ") + d.name);
  }
  r.check(r.attempted > 0, "no shuffle attempted");

  std::printf("workload %s seed %llu seconds %s trace %d (git %s, %s, nproc %u)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              num(args.seconds).c_str(), args.trace ? 1 : 0, LEDGER_GIT_SHA,
              LEDGER_BUILD_TYPE, nproc());
  const auto print = [&](const MetricDef& d) {
    const auto it = r.values.find(d.name);
    std::printf("%s %s %s\n", d.name, num(it == r.values.end() ? 0.0 : it->second).c_str(),
                d.unit);
  };
  for (const auto& d : kEndToEnd) print(d);
  if (args.trace) {
    for (const auto& d : kPerLayer) print(d);
    std::printf("%zu spans written to %s/ledger_%s.{spans.jsonl,perfetto.json}\n", r.spans,
                args.out_dir.c_str(), args.workload.c_str());
  }
  for (const auto& v : r.violations) std::printf("VIOLATION %s\n", v.c_str());
  write_record(args, r);

  const bool correct = r.violations.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              args.trace ? metrics_json(kPerLayer, r, true).c_str()
                         : metrics_json(kEndToEnd, r, true).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Every workload at tiny size, traced (so every leg and replay runs), with
/// every correctness check; no timing is asserted.
int smoke(const RunArgs& base) {
  int rc = 0;
  for (const auto& w : kWorkloads) {
    RunArgs args = base;
    args.smoke = true;
    args.trace = true;
    args.workload = w.name;
    Report r;
    const double t0 = wall_s();
    w.run(args, r);
    r.check(r.attempted > 0, "no shuffle attempted");
    std::printf("smoke %-18s %s attempted=%llu failed=%llu (%.1f s)\n", w.name,
                r.violations.empty() ? "ok  " : "FAIL",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), wall_s() - t0);
    for (const auto& v : r.violations) std::printf("  VIOLATION %s\n", v.c_str());
    if (!r.violations.empty()) rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace accountnet::ledger

int main(int argc, char** argv) {
  using namespace accountnet::ledger;
  RunArgs args;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--help" || a == "-h") return usage(stdout);
    if (a == "--smoke") {
      smoke_mode = true;
      continue;
    }
    bool ok = v != nullptr;
    if (a == "--workload" && ok) {
      args.workload = v;
    } else if (a == "--seed" && ok) {
      ok = parse_u64(v, args.seed);
    } else if (a == "--seconds" && ok) {
      ok = parse_seconds(v, args.seconds);
    } else if (a == "--trace" && ok) {
      ok = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      args.trace = ok && v[0] == '1';
    } else if (a == "--out" && ok) {
      args.out_dir = v;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "ledger: bad or unknown argument '%s'\n", a.c_str());
      return usage(stderr);
    }
    ++i;
  }
  if (smoke_mode) return smoke(args);
  if (args.workload.empty()) return usage(stderr);
  return run_workload(args);
}
