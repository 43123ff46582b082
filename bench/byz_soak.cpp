// Byzantine soak: active adversaries against the accountability pipeline
// (accuse -> quarantine -> evict) on the event-driven core::Node stack.
//
// A 64-node overlay settles honestly, opens witnessed channels between
// honest endpoints, then a 10% adversary contingent is armed with one
// attack type at a time:
//   shuffle-facing: bias_sample, forge_history, truncate_history, equivocate
//   witness-facing: tamper_relay, silent_witness (drop + stonewall),
//                   lie_testimony
// plus a clean baseline that must produce zero accusations.
//
// Reported per (attack, seed):
//   - detection latency: shuffle periods from arming until >= 95% of honest
//     nodes quarantine every detected cheater (network-wide, via gossip),
//   - residual malicious neighborhood fraction before/after (the fig14/fig18
//     quantity, here over direct peersets of honest nodes),
//   - false positives: honest-honest quarantine pairs and honest evictions
//     (both MUST stay 0 on a no-fault network).
//
// The soak machinery (attack grid, ByzSoak, run_attack) lives in
// byz_soak_common.hpp, shared with bench/sampler_compare.
//
// Emits BENCH_byz_soak.json (JSON-lines, one row per attack config).

#include "byz_soak_common.hpp"

int main(int argc, char** argv) {
  using namespace accountnet;
  using bench::attack_grid;
  using bench::run_attack;
  const auto args = bench::parse_args(argc, argv);
  // --trace <path>: re-run the tamper_relay attack with causal tracing on
  // and export the spans as Perfetto JSON (plus <path>.spans.jsonl for
  // accountnet-trace). Kept out of the grid runs so BENCH rows are identical
  // with and without the flag.
  const std::string& trace_out = args.trace;
  bench::print_header("byz_soak",
                      "Byzantine soak — active adversaries vs the "
                      "accuse/quarantine/evict pipeline (cf. Figs. 14/18)",
                      args.full);
  obs::JsonLinesSink sink("BENCH_byz_soak.json");

  const std::size_t n = 64;
  const std::size_t pairs = 12;
  const std::size_t max_periods = args.full ? 120 : 60;
  const std::vector<double> mixes =
      args.full ? std::vector<double>{0.05, 0.10, 0.20} : std::vector<double>{0.10};

  for (const double adv_frac : mixes) {
    std::printf("\n--- |V| = %zu, adversary fraction %.0f%%, seed %llu ---\n", n,
                adv_frac * 100,
                static_cast<unsigned long long>(args.seed));
    Table t({"attack", "detected", "coverage", "latency (periods)", "fp pairs",
             "honest evict", "resid mal frac", "accusations"});
    for (const auto& spec : attack_grid()) {
      // --timeseries: record a per-period trajectory of every metric and
      // append it to the artifact after this attack's scrape rows.
      std::unique_ptr<obs::TimeSeriesScraper> scraper;
      if (args.timeseries) scraper = std::make_unique<obs::TimeSeriesScraper>();
      const auto row = run_attack(spec, n, adv_frac, pairs, max_periods, args.seed,
                                  sink, nullptr, core::SamplerKind::kVrf,
                                  scraper.get());
      if (scraper) {
        scraper->dump_jsonl(sink, ",\"bench\":\"byz_soak\",\"attack\":\"" +
                                      spec.label + "\",\"adv_frac\":" +
                                      Table::num(adv_frac, 3));
      }
      t.add_row({row.attack, std::to_string(row.detected), Table::num(row.coverage, 3),
                 std::to_string(row.latency_periods), std::to_string(row.fp_pairs),
                 std::to_string(row.honest_evictions),
                 Table::num(row.residual_mal_frac, 4),
                 std::to_string(row.accusations)});
      sink.raw_line(
          "{\"bench\":\"byz_soak\",\"attack\":\"" + row.attack + "\",\"n\":" +
          std::to_string(n) + ",\"adv_frac\":" + Table::num(adv_frac, 3) +
          ",\"seed\":" + std::to_string(args.seed) + ",\"detected\":" +
          std::to_string(row.detected) + ",\"coverage\":" + Table::num(row.coverage, 4) +
          ",\"latency_periods\":" + std::to_string(row.latency_periods) +
          ",\"false_positive_pairs\":" + std::to_string(row.fp_pairs) +
          ",\"honest_evictions\":" + std::to_string(row.honest_evictions) +
          ",\"baseline_malicious_frac\":" + Table::num(row.baseline_mal_frac, 4) +
          ",\"residual_malicious_frac\":" + Table::num(row.residual_mal_frac, 4) +
          ",\"accusations_created\":" + std::to_string(row.accusations) +
          ",\"accusations_rejected\":" + std::to_string(row.rejected) +
          ",\"challenges_convicted\":" + std::to_string(row.convicted) +
          ",\"quarantine_edges\":" + std::to_string(row.quarantine_edges) + "}");
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf("\n%s", t.to_string().c_str());
  }

  std::printf(
      "\nShape checks: the clean row stays all-zero (no accusations, no\n"
      "quarantines); every attack that fires is detected and gossip carries\n"
      "each detected cheater to >= 95%% honest quarantine coverage; false\n"
      "positives and honest evictions are 0 on this no-fault network; the\n"
      "residual malicious neighborhood fraction drops toward 0 once\n"
      "quarantine drains cheaters from honest peersets (cf. fig14/fig18).\n");
  std::printf("wrote BENCH_byz_soak.json\n");

  if (!trace_out.empty()) {
    // Forensics sample: tamper_relay exercises the full dispute pipeline
    // (relay -> tampered forward -> accuse -> gossip -> quarantine/evict),
    // so its trace shows a dispute timeline end to end.
    std::printf("\ntracing tamper_relay run for %s...\n", trace_out.c_str());
    obs::Tracer tracer(args.seed);
    obs::NullSink null;
    core::AdversaryPolicy tamper;
    tamper.tamper_relays = true;
    run_attack({"tamper_relay", tamper}, n, 0.10, pairs, 10, args.seed, null, &tracer);
    obs::PerfettoSink perfetto(trace_out);
    perfetto.add_all(tracer.spans());
    perfetto.flush();
    obs::write_spans_jsonl(tracer.spans(), trace_out + ".spans.jsonl");
    std::printf("wrote %s (%zu spans; load via ui.perfetto.dev) and "
                "%s.spans.jsonl (accountnet-trace input)\n",
                trace_out.c_str(), tracer.spans().size(), trace_out.c_str());
  }
  return 0;
}
