// accountnet-resolve — end-to-end dispute walkthrough from the shell.
//
// Spins up a simulated network, pushes one payload through a witnessed
// channel, then lets you choose who lies and watches the resolver work:
//
//   accountnet-resolve                       # consumer lies (default)
//   accountnet-resolve --liar producer
//   accountnet-resolve --liar none
//   accountnet-resolve --bad-witnesses 2     # colluding witnesses too
#include <cstdio>
#include <cstring>
#include <string>

#include "accountnet/core/resolver.hpp"
#include "accountnet/util/rng.hpp"

using namespace accountnet;

int main(int argc, char** argv) {
  std::string liar = "consumer";
  std::size_t bad_witnesses = 0;
  std::uint64_t seed = 11;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--liar" && i + 1 < argc) {
      liar = argv[++i];
    } else if (a == "--bad-witnesses" && i + 1 < argc) {
      bad_witnesses = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::printf("usage: accountnet-resolve [--liar producer|consumer|none] "
                  "[--bad-witnesses N] [--seed N]\n");
      return 2;
    }
  }

  // Build and settle a 40-node overlay.
  sim::Simulator simulator;
  sim::SimNetwork net(simulator, sim::netem_latency(), seed);
  const auto provider = crypto::make_fast_crypto();
  core::Node::Config config;
  config.protocol.max_peerset = 3;
  config.protocol.shuffle_length = 2;
  config.shuffle_period = sim::seconds(2);
  config.witness_count = 5;
  config.majority_opt = true;
  config.depth = 2;

  std::vector<std::unique_ptr<core::Node>> nodes;
  for (std::size_t i = 0; i < 40; ++i) {
    Bytes node_seed(32);
    Rng rng(seed * 100 + i);
    for (auto& b : node_seed) b = static_cast<std::uint8_t>(rng.next_u64());
    nodes.push_back(std::make_unique<core::Node>(net, "n" + std::to_string(100 + i),
                                                 *provider, node_seed, config,
                                                 rng.next_u64()));
  }
  nodes[0]->start_as_seed();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    simulator.schedule(sim::milliseconds(static_cast<std::int64_t>(40 * i)),
                       [&, i] { nodes[i]->start_join(nodes[i - 1]->id().addr); });
  }
  simulator.run_until(sim::seconds(60));
  std::printf("overlay settled: 40 nodes shuffling verifiably\n");

  core::Node& producer = *nodes[2];
  core::Node& consumer = *nodes[30];
  std::uint64_t channel = 0;
  producer.open_channel(consumer.id().addr,
                        [&](std::uint64_t id, bool ok) { channel = ok ? id : 0; });
  simulator.run_until(simulator.now() + sim::seconds(15));
  if (channel == 0) {
    std::printf("channel setup failed\n");
    return 1;
  }
  auto witnesses = *producer.channel_witnesses(channel);
  std::printf("witness group (%zu):", witnesses.size());
  for (const auto& w : witnesses) std::printf(" %s", w.addr.c_str());
  std::printf("\n");

  // Optionally corrupt some witnesses BEFORE the transfer.
  std::size_t corrupted = 0;
  for (auto& n : nodes) {
    if (corrupted >= bad_witnesses) break;
    for (const auto& w : witnesses) {
      if (n->id().addr == w.addr) {
        n->adversary().lie_in_testimony = true;
        std::printf("witness %s will fabricate testimony\n", w.addr.c_str());
        ++corrupted;
        break;
      }
    }
  }

  const Bytes truth = bytes_of("inference-result: pedestrian at 4.2m, 0.97");
  producer.send_data(channel, truth);
  simulator.run_until(simulator.now() + sim::seconds(5));
  std::printf("payload transferred through the witnesses\n\n");

  // Claims.
  const Bytes fabricated = bytes_of("we-never-said-that");
  core::Claim producer_claim{producer.id(), core::digest_of(truth)};
  core::Claim consumer_claim{consumer.id(), core::digest_of(truth)};
  if (liar == "producer") {
    producer_claim.digest = core::digest_of(fabricated);
    std::printf("the PRODUCER now claims it sent something else\n");
  } else if (liar == "consumer") {
    consumer_claim.digest = core::digest_of(fabricated);
    std::printf("the CONSUMER now claims it received something else\n");
  } else {
    std::printf("both parties tell the truth\n");
  }

  // Third-party resolution over the wire.
  core::DisputeResolver resolver(*nodes[35], *provider);
  core::DisputeResolver::Request req;
  req.channel_id = channel;
  req.sequence = 1;
  req.witnesses = witnesses;
  req.producer_claim = producer_claim;
  req.consumer_claim = consumer_claim;
  std::optional<core::DisputeResolver::Outcome> outcome;
  resolver.resolve(req, [&](core::DisputeResolver::Outcome o) { outcome = std::move(o); });
  simulator.run_until(simulator.now() + sim::seconds(10));
  if (!outcome) {
    std::printf("resolution never completed\n");
    return 1;
  }
  const char* verdicts[] = {"claims agree", "PRODUCER dishonest", "CONSUMER dishonest",
                            "both dishonest", "inconclusive"};
  std::printf("\n%zu/%zu witnesses testified; verdict: %s "
              "(majority %zu, invalid testimonies %zu)\n",
              outcome->responded, witnesses.size(),
              verdicts[static_cast<int>(outcome->resolution.verdict)],
              outcome->resolution.majority_count,
              outcome->resolution.invalid_testimonies);
  return 0;
}
