// Fig. 11: network size, number of malicious nodes (p_m = 0.1), and shuffle
// rate over analysis rounds, for several network sizes.
#include "accountnet/obs/sink.hpp"
#include "bench_sim.hpp"

int main(int argc, char** argv) {
  using namespace accountnet;
  const auto args = bench::parse_args(argc, argv);
  bench::print_header("fig11_network_growth",
                      "Fig. 11 — network size, malicious nodes, shuffle rate",
                      args.full);

  // --full adds the 100k scale row (slimmed history, FastCrypto; drive it
  // with --threads N for the wave-parallel scheduler — same numbers, less
  // wall-clock).
  const std::vector<std::size_t> sizes =
      args.full ? std::vector<std::size_t>{500, 1000, 5000, 10000, 100000}
                : std::vector<std::size_t>{500, 1000, 5000};

  obs::JsonLinesSink sink("BENCH_fig11_network_growth.json");
  for (const auto v : sizes) {
    auto config = v >= 100000 ? bench::scale_config(v, args)
                              : bench::paper_config(v, 5, 2, args);
    config.pm = 0.10;
    harness::NetworkSim sim(config);
    Table t({"round", "network size", "malicious", "shuffles/sec"});
    const std::size_t rounds = bench::steady_rounds(config, 20);
    sim.run(rounds, [&](std::size_t round) {
      const auto delta = sim.take_shuffle_delta();
      if (round % 10 == 0 || round == rounds) {
        t.add_row({std::to_string(round), std::to_string(sim.alive_count()),
                   std::to_string(sim.malicious_alive_count()),
                   Table::num(static_cast<double>(delta) /
                              sim::to_seconds(config.analysis_period))});
      }
    });
    std::printf("\n|V| = %zu (expect full size ~round 70-75, rate ~0.1|V|/s)\n%s", v,
                t.to_string().c_str());
    sink.raw_line("{\"bench\":\"fig11_network_growth\",\"network_size\":" +
                  std::to_string(v) + "}");
    sim.scrape_metrics(sink);
  }
  std::printf("\nwrote BENCH_fig11_network_growth.json\n");
  return 0;
}
