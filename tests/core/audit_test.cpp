// Cross-entry audit, history invariants, and neighborhood audits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "accountnet/core/audit.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;
using testing::retained;
using testing::run_shuffle;

class AuditFixture : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_fast_crypto();

  std::map<std::string, std::unique_ptr<NodeState>> build_and_shuffle(std::size_t n,
                                                                      int rounds) {
    std::map<std::string, std::unique_ptr<NodeState>> nodes;
    std::vector<PeerId> ids;
    NodeConfig config;
    config.max_peerset = 5;
    config.shuffle_length = 3;
    for (std::size_t i = 0; i < n; ++i) {
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
    for (int r = 0; r < rounds; ++r) {
      for (auto& [addr, node] : nodes) {
        const auto choice = choose_partner(*node);
        if (!choice) continue;
        const auto it = nodes.find(choice->partner.addr);
        if (it == nodes.end()) continue;
        EXPECT_EQ(run_shuffle(*node, *it->second, *provider_), "");
      }
    }
    return nodes;
  }

  FnEntryOracle oracle_for(std::map<std::string, std::unique_ptr<NodeState>>& nodes) {
    return FnEntryOracle([&nodes](const PeerId& who, Round round)
                             -> std::optional<HistoryEntry> {
      const auto it = nodes.find(who.addr);
      if (it == nodes.end()) return std::nullopt;
      for (const auto& e : retained(it->second->history())) {
        if (e.self_round == round) return e;
      }
      return std::nullopt;
    });
  }
};

TEST_F(AuditFixture, HonestHistoriesPassCrossAudit) {
  auto nodes = build_and_shuffle(10, 20);
  auto oracle = oracle_for(nodes);
  for (auto& [addr, node] : nodes) {
    const auto res =
        cross_audit_history(retained(node->history()), node->self(), oracle);
    EXPECT_TRUE(res.verdict) << addr << ": " << res.verdict.reason;
    EXPECT_GT(res.checked, 0u) << addr;
    EXPECT_EQ(res.unreachable, 0u) << addr;
  }
}

TEST_F(AuditFixture, HonestHistoriesPassInvariantAudit) {
  auto nodes = build_and_shuffle(10, 20);
  for (auto& [addr, node] : nodes) {
    const auto v = audit_history_invariants(retained(node->history()), node->self());
    EXPECT_TRUE(v) << addr << ": " << v.reason;
  }
}

TEST_F(AuditFixture, FabricatedInPeerDetected) {
  auto nodes = build_and_shuffle(8, 10);
  // Take a node with a shuffle entry and inject a ghost into its in-set.
  for (auto& [addr, node] : nodes) {
    auto entries = retained(node->history());
    for (auto& e : entries) {
      if (e.kind != EntryKind::kShuffle) continue;
      e.in.push_back(PeerId{"ghost", {}});
      auto oracle = oracle_for(nodes);
      const auto res = cross_audit_history(entries, node->self(), oracle);
      EXPECT_FALSE(res.verdict);
      EXPECT_NE(res.verdict.reason.find("never offered"), std::string::npos);
      return;
    }
  }
  FAIL() << "no shuffle entry found";
}

TEST_F(AuditFixture, MismatchedNonceDetected) {
  auto nodes = build_and_shuffle(8, 10);
  for (auto& [addr, node] : nodes) {
    auto entries = retained(node->history());
    for (auto& e : entries) {
      if (e.kind != EntryKind::kShuffle) continue;
      e.nonce += 1;  // claim the exchange happened at a different round
      auto oracle = oracle_for(nodes);
      const auto res = cross_audit_history(entries, node->self(), oracle);
      // Either the mirror entry is not found (unreachable) or cross-match
      // fails; both expose the lie.
      EXPECT_TRUE(!res.verdict || res.unreachable > 0);
      return;
    }
  }
  FAIL() << "no shuffle entry found";
}

TEST_F(AuditFixture, RemovingNonMemberDetected) {
  auto nodes = build_and_shuffle(8, 10);
  auto& node = *nodes.begin()->second;
  auto entries = retained(nodes.rbegin()->second->history());
  (void)node;
  for (auto& e : entries) {
    if (e.kind != EntryKind::kShuffle) continue;
    e.out.push_back(PeerId{"never-a-peer", {}});
    const auto v =
        audit_history_invariants(entries, nodes.rbegin()->second->self());
    EXPECT_FALSE(v);
    EXPECT_NE(v.reason.find("non-member"), std::string::npos);
    return;
  }
  FAIL() << "no shuffle entry found";
}

TEST_F(AuditFixture, PartialWindowSkipsAbsenceChecks) {
  auto nodes = build_and_shuffle(8, 10);
  auto& node = *nodes.rbegin()->second;
  // A mid-history window removes peers that predate the window; the audit
  // must not flag that as a violation.
  const UpdateHistory& h = node.history();
  const std::size_t k = std::min<std::size_t>(3, h.size());
  const auto suffix = h.entries_from(h.total_appended() - k, k);
  if (suffix.front().self_round == 0) GTEST_SKIP() << "window is complete";
  EXPECT_TRUE(audit_history_invariants(suffix, node.self()));
}

TEST_F(AuditFixture, EntryPairRefillConsistency) {
  auto nodes = build_and_shuffle(10, 30);
  // Find any pair with a refill and check audit_entry_pair end to end.
  for (auto& [addr, node] : nodes) {
    for (const auto& e : retained(node->history())) {
      if (e.kind != EntryKind::kShuffle || e.fill.empty()) continue;
      const auto it = nodes.find(e.counterpart.addr);
      ASSERT_NE(it, nodes.end());
      for (const auto& ce : retained(it->second->history())) {
        if (ce.kind == EntryKind::kShuffle && ce.self_round == e.nonce &&
            ce.counterpart == node->self()) {
          EXPECT_TRUE(audit_entry_pair(e, node->self(), ce, e.counterpart));
          return;
        }
      }
    }
  }
  GTEST_SKIP() << "no refill happened in this run";
}

class NeighborhoodAuditFixture : public ::testing::Test {
 protected:
  // A small static overlay for oracle-based audits.
  std::map<std::string, Peerset> graph_;
  void link(const std::string& from, std::vector<std::string> to) {
    Peerset s;
    for (auto& t : to) s.insert(PeerId{t, {}});
    graph_[from] = std::move(s);
  }
  FnPeersetOracle oracle() {
    return FnPeersetOracle([this](const PeerId& p) -> std::optional<Peerset> {
      const auto it = graph_.find(p.addr);
      if (it == graph_.end()) return std::nullopt;
      return it->second;
    });
  }
};

TEST_F(NeighborhoodAuditFixture, FullAuditAcceptsTruth) {
  link("r", {"a", "b"});
  link("a", {"c"});
  link("b", {"c", "d"});
  auto o = oracle();
  const auto truth = neighborhood(o, PeerId{"r", {}}, 2);
  EXPECT_TRUE(audit_neighborhood_full(o, PeerId{"r", {}}, 2, truth));
}

TEST_F(NeighborhoodAuditFixture, FullAuditCatchesGhostsAndHiding) {
  link("r", {"a"});
  link("a", {"b"});
  auto o = oracle();
  auto truth = neighborhood(o, PeerId{"r", {}}, 2);
  auto padded = truth;
  padded.push_back(PeerId{"zzz-ghost", {}});
  std::sort(padded.begin(), padded.end());
  const auto v1 = audit_neighborhood_full(o, PeerId{"r", {}}, 2, padded);
  EXPECT_FALSE(v1);
  EXPECT_NE(v1.reason.find("unreachable"), std::string::npos);

  auto hidden = truth;
  hidden.pop_back();
  const auto v2 = audit_neighborhood_full(o, PeerId{"r", {}}, 2, hidden);
  EXPECT_FALSE(v2);
  EXPECT_NE(v2.reason.find("hides"), std::string::npos);
}

TEST_F(NeighborhoodAuditFixture, SpotAuditAcceptsTruthAndCatchesHiding) {
  link("r", {"a", "b"});
  link("a", {"c", "d"});
  link("b", {"d", "e"});
  auto o = oracle();
  const auto truth = neighborhood(o, PeerId{"r", {}}, 2);
  Rng rng(5);
  EXPECT_TRUE(audit_neighborhood_spot(o, PeerId{"r", {}}, 2, truth, 50, rng));

  // Hide node "e": enough walks will stumble over it.
  std::vector<PeerId> hiding;
  for (const auto& p : truth) {
    if (p.addr != "e") hiding.push_back(p);
  }
  Rng rng2(5);
  const auto v = audit_neighborhood_spot(o, PeerId{"r", {}}, 2, hiding, 200, rng2);
  EXPECT_FALSE(v);
  EXPECT_NE(v.reason.find("under-reports"), std::string::npos);
}

}  // namespace
}  // namespace accountnet::core
