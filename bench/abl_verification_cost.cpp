// Ablation: what does verification actually cost?
//
// Part 1 — wall-clock throughput of the full shuffle exchange with (a) no
// verification, (b) spot verification, (c) full verification, under both
// crypto backends — quantifying the price of the paper's security mechanism
// and justifying the harness's spot-verification default.
//
// Part 2 — the VerificationEngine's history-verification cost per entry
// (core/verification_engine.hpp): full reconstruction with every
// counterpart signature checked one by one. Emits BENCH_verify.json
// (JSON-lines, one row per backend × suffix length) with the per-entry cost
// the CI chaos job tracks.
#include <algorithm>
#include <chrono>

#include "accountnet/core/select.hpp"
#include "accountnet/core/shuffle.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/obs/sink.hpp"
#include "accountnet/util/rng.hpp"
#include "bench_sim.hpp"

namespace {

using namespace accountnet;
using namespace accountnet::core;

Bytes seed_for(std::uint64_t i) {
  Bytes seed(32);
  Rng rng(i * 7919 + 13);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

/// A small fully-joined world driven by the pure shuffle functions, used to
/// grow genuine (signed, reconstructible) histories for the engine rows.
struct World {
  std::unique_ptr<crypto::CryptoProvider> provider;
  std::vector<std::unique_ptr<NodeState>> all;

  World(bool real, std::uint64_t seed) {
    provider = real ? crypto::make_real_crypto() : crypto::make_fast_crypto();
    NodeConfig config;
    config.max_peerset = 10;
    config.shuffle_length = 5;
    std::vector<PeerId> ids;
    for (std::size_t i = 0; i < 22; ++i) {
      const std::string addr = "vc" + std::to_string(100 + i);
      auto signer = provider->make_signer(seed_for(seed * 1000 + i));
      PeerId id{addr, signer->public_key()};
      all.push_back(std::make_unique<NodeState>(id, std::move(signer), config));
      ids.push_back(all.back()->self());
    }
    auto& bootstrap = *all.front();
    bootstrap.init_as_seed();
    for (std::size_t i = 1; i < all.size(); ++i) {
      std::vector<PeerId> others;
      for (const auto& id : ids) {
        if (!(id == all[i]->self())) others.push_back(id);
      }
      const Bytes stamp =
          bootstrap.signer().sign(join_stamp_payload(all[i]->self().addr));
      all[i]->apply_join(bootstrap.self(), stamp, others);
    }
  }

  NodeState* by_id(const PeerId& id) {
    for (auto& n : all) {
      if (n->self() == id) return n.get();
    }
    return nullptr;
  }

  /// Round-robin shuffles until `all[1]` holds at least `target` entries.
  void grow_history(std::size_t target) {
    for (int round = 0; round < 512 && all[1]->history().size() < target; ++round) {
      for (auto& node : all) {
        const auto choice = choose_partner(*node);
        if (!choice) continue;
        NodeState* partner = by_id(choice->partner);
        const auto offer = make_offer(*node, *choice, partner->round());
        const auto resp = make_response_and_commit(*partner, offer);
        apply_offer_outcome(*node, offer, resp);
      }
    }
  }
};

struct EngineRow {
  double ns = 0;
  std::size_t entries = 0;
};

/// Per-entry verification cost over one genuine suffix.
EngineRow measure_engine(bool real, std::size_t target_entries, std::size_t iters,
                         std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  World w(real, seed);
  w.grow_history(target_entries);
  NodeState& node = *w.all[1];
  const UpdateHistory& h = node.history();
  const std::size_t k = std::min(target_entries, h.size());
  const auto suffix = h.entries_from(h.total_appended() - k, k);
  const Peerset claimed = UpdateHistory::reconstruct(suffix);

  const VerificationEngine engine(*w.provider);
  const auto start = clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    if (!engine.verify_history(suffix, node.self(), claimed).ok) std::abort();
  }
  const double ns = std::chrono::duration<double, std::nano>(clock::now() - start).count();
  return {ns / static_cast<double>(iters * suffix.size()), suffix.size()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace accountnet;
  const auto args = bench::parse_args(argc, argv);
  bench::print_header("abl_verification_cost",
                      "ablation — verification overhead on shuffle throughput",
                      args.full);

  struct Mode {
    const char* label;
    double verify_fraction;
    bool real_crypto;
  };
  const std::vector<Mode> modes = {
      {"fast crypto, no verify", 0.0, false},
      {"fast crypto, 5% spot verify", 0.05, false},
      {"fast crypto, full verify", 1.0, false},
      {"real crypto, no verify", 0.0, true},
      {"real crypto, full verify", 1.0, true},
  };
  const std::size_t v = args.full ? 500 : 200;
  const std::size_t rounds = args.full ? 60 : 40;

  Table t({"mode", "shuffles", "wall ms", "us/shuffle", "verified", "failures"});
  for (const auto& mode : modes) {
    auto config = bench::paper_config(v, 5, 2, args.seed);
    config.verify_fraction = mode.verify_fraction;
    config.use_real_crypto = mode.real_crypto;
    harness::NetworkSim sim(config);
    const auto start = std::chrono::steady_clock::now();
    sim.run(rounds, nullptr);
    const auto end = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    const auto& s = sim.stats();
    t.add_row({mode.label, std::to_string(s.shuffles_completed),
               Table::num(wall_ms, 1),
               Table::num(wall_ms * 1000.0 / static_cast<double>(s.shuffles_completed), 1),
               std::to_string(s.shuffles_verified),
               std::to_string(s.verification_failures)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n|V| = %zu, %zu analysis rounds\n%s", v, rounds, t.to_string().c_str());

  // --- Part 2: VerificationEngine history cost -----------------------------
  obs::JsonLinesSink sink("BENCH_verify.json");
  const std::vector<std::size_t> lengths =
      args.full ? std::vector<std::size_t>{32, 64, 128} : std::vector<std::size_t>{48};
  Table e({"backend", "entries", "ns_per_entry"});
  for (const bool real : {true, false}) {
    for (const std::size_t len : lengths) {
      const std::size_t iters = real ? 8 : 64;
      const EngineRow r = measure_engine(real, len, iters, args.seed);
      e.add_row({real ? "real" : "fast", std::to_string(r.entries), Table::num(r.ns, 0)});
      sink.raw_line("{\"bench\":\"verify\",\"backend\":\"" +
                    std::string(real ? "real" : "fast") +
                    "\",\"entries\":" + std::to_string(r.entries) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"ns_per_entry\":" + Table::num(r.ns, 1) + "}");
      std::printf(".");
      std::fflush(stdout);
    }
  }
  std::printf("\nVerificationEngine history path (genuine suffixes):\n%s",
              e.to_string().c_str());
  std::printf("wrote BENCH_verify.json\n");

  std::printf("\nTakeaway: full verification multiplies per-shuffle cost (dominated\n"
              "by VRF re-derivation and history reconstruction) but stays well\n"
              "within a 10 s shuffle period even with real Ed25519+ECVRF.\n");
  return 0;
}
