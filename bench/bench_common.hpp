// Shared plumbing for the table/figure reproduction binaries.
//
// Every binary runs a scaled-down-but-shape-preserving configuration by
// default (so `for b in build/bench/*; do $b; done` completes in minutes)
// and the full paper-scale grid under --full. Each prints the rows/series
// the corresponding paper table or figure reports.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "accountnet/util/stats.hpp"
#include "accountnet/util/table.hpp"

namespace accountnet::bench {

struct BenchArgs {
  bool full = false;
  std::uint64_t seed = 1;
  /// --timeseries: soak benches attach an obs::TimeSeriesScraper and append
  /// "kind":"timeseries" rows to their BENCH_*.json. Off by default so the
  /// default artifacts stay byte-identical.
  bool timeseries = false;
  /// --threads N: harness::ExperimentConfig::threads for harness-based
  /// benches; N >= 2 batches shuffles into waves on N workers. Results are
  /// bit-identical at every N; only wall-clock changes. 0 (the default)
  /// and 1 run each shuffle at once on the calling thread.
  std::size_t threads = 0;
  /// --trace PATH: byz_soak re-runs one attack with causal tracing on and
  /// exports the spans to PATH; the other benches ignore it. Empty = off.
  std::string trace;
};

inline void print_usage(std::FILE* out, const char* prog) {
  std::fprintf(out,
               "usage: %s [--full] [--seed N] [--threads N] [--timeseries] [--trace PATH]\n"
               "  --full        paper-scale grid instead of the scaled default\n"
               "  --seed N      base seed (default 1)\n"
               "  --threads N   wave-parallel harness drive with N workers (default 0)\n"
               "  --timeseries  append per-period time-series rows (soak benches)\n"
               "  --trace PATH  export a traced re-run as Perfetto JSON (byz_soak)\n",
               prog);
}

/// Parses the shared bench flags. --help prints the usage and exits 0; an
/// unknown flag, a missing value or a value that is not a decimal number
/// in range prints the usage to stderr and exits 2.
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  const auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    print_usage(stderr, argv[0]);
    std::exit(2);
  };
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) fail(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  const auto number = [&](int& i) -> std::uint64_t {
    const std::string flag = argv[i];
    const std::string text = value(i);
    const bool digits = !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
    errno = 0;
    const std::uint64_t v = digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    if (!digits || errno == ERANGE) fail("malformed value for " + flag + ": '" + text + "'");
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else if (a == "--full") {
      args.full = true;
    } else if (a == "--timeseries") {
      args.timeseries = true;
    } else if (a == "--seed") {
      args.seed = number(i);
    } else if (a == "--threads") {
      args.threads = static_cast<std::size_t>(number(i));
    } else if (a == "--trace") {
      args.trace = value(i);
    } else {
      fail("unknown argument '" + a + "'");
    }
  }
  return args;
}

inline void print_header(const std::string& experiment, const std::string& paper_ref,
                         bool full) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Mode: %s (pass --full for the paper-scale grid)\n",
              full ? "FULL" : "default (scaled)");
  std::printf("==================================================================\n");
}

inline std::string dist_row(const Samples& s, int precision = 3) {
  if (s.empty()) return "(no samples)";
  return "mean=" + Table::num(s.mean(), precision) +
         " sd=" + Table::num(s.stddev(), precision) +
         " p5=" + Table::num(s.percentile(5), precision) +
         " p50=" + Table::num(s.median(), precision) +
         " p95=" + Table::num(s.percentile(95), precision) +
         " n=" + std::to_string(s.count());
}

}  // namespace accountnet::bench
