// Parameterized protocol-invariant sweeps: for each (f, L) configuration,
// run many verified shuffles over a mesh and assert the invariants the
// security analysis relies on.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;
using testing::run_shuffle;

struct Params {
  std::size_t f;
  std::size_t l;
  std::size_t nodes;
};

class ShuffleInvariants : public ::testing::TestWithParam<Params> {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_fast_crypto();
};

TEST_P(ShuffleInvariants, HoldAcrossManyRounds) {
  const auto p = GetParam();
  NodeConfig config;
  config.max_peerset = p.f;
  config.shuffle_length = p.l;

  std::map<std::string, std::unique_ptr<NodeState>> nodes;
  std::vector<PeerId> ids;
  for (std::size_t i = 0; i < p.nodes; ++i) {
    const std::string addr = "node" + std::to_string(100 + i);
    auto node = make_node(addr, *provider_, config);
    ids.push_back(node->self());
    nodes[addr] = std::move(node);
  }
  auto& bootstrap = *nodes.begin()->second;
  bootstrap.init_as_seed();
  for (auto& [addr, node] : nodes) {
    if (node.get() == &bootstrap) continue;
    std::vector<PeerId> others;
    for (const auto& id : ids) {
      if (!(id == node->self())) others.push_back(id);
    }
    node->apply_join(bootstrap.self(),
                     bootstrap.signer().sign(join_stamp_payload(addr)), others);
  }

  std::size_t completed = 0;
  for (int round = 0; round < 40; ++round) {
    for (auto& [addr, node] : nodes) {
      const auto choice = choose_partner(*node);
      if (!choice) continue;
      const auto it = nodes.find(choice->partner.addr);
      ASSERT_NE(it, nodes.end());
      const std::string err = run_shuffle(*node, *it->second, *provider_);
      ASSERT_EQ(err, "") << addr << " round " << round;
      ++completed;

      // Invariant 1: bounded peersets.
      ASSERT_LE(node->peerset().size(), p.f);
      ASSERT_LE(it->second->peerset().size(), p.f);
      // Invariant 2: no self-membership.
      ASSERT_FALSE(node->peerset().contains(node->self()));
      ASSERT_FALSE(it->second->peerset().contains(it->second->self()));
      // Invariant 3: the initiator is now known to the responder.
      ASSERT_TRUE(it->second->peerset().contains(node->self()));
    }
  }
  ASSERT_GT(completed, p.nodes * 20);

  // Invariant 4: every node's minimal proof suffix reconstructs its peerset
  // and passes third-party verification.
  for (auto& [addr, node] : nodes) {
    const auto suffix = make_history_proof(*node).suffix;
    ASSERT_EQ(UpdateHistory::reconstruct(suffix), node->peerset()) << addr;
    ASSERT_TRUE(
        verify_history_suffix(suffix, node->self(), node->peerset(), *provider_))
        << addr;
  }

  // Invariant 5: out/in cross-consistency between the last entries of any
  // shuffle pair (the audit of Sec. IV-A "Peerset verification").
  for (auto& [addr, node] : nodes) {
    for (const auto& e : node->history().entries()) {
      if (e.kind != EntryKind::kShuffle) continue;
      const auto it = nodes.find(e.counterpart.addr);
      if (it == nodes.end()) continue;
      // Find the matching entry on the counterpart (nonce == its round).
      for (const auto& ce : it->second->history().entries()) {
        if (ce.kind != EntryKind::kShuffle || !(ce.counterpart == node->self()))
          continue;
        if (ce.self_round != e.nonce) continue;
        // My "in" peers must have been offered by the counterpart: they lie
        // in its out-set or are the counterpart itself.
        std::set<PeerId> ce_out(ce.out.begin(), ce.out.end());
        for (const auto& q : e.in) {
          ASSERT_TRUE(ce_out.contains(q) || q == e.counterpart)
              << addr << " in-peer " << q.addr << " unexplained";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ShuffleInvariants,
    ::testing::Values(Params{2, 1, 8}, Params{3, 2, 10}, Params{5, 3, 12},
                      Params{5, 5, 12}, Params{7, 4, 14}, Params{10, 5, 16},
                      Params{10, 7, 16}, Params{10, 10, 16}, Params{16, 8, 20}),
    [](const auto& info) {
      return "f" + std::to_string(info.param.f) + "_L" + std::to_string(info.param.l) +
             "_n" + std::to_string(info.param.nodes);
    });

}  // namespace
}  // namespace accountnet::core
