// Hierarchical pool federation (DESIGN.md §13): topology invariants,
// conservation under churn on a lossy fabric, golden-trace neutrality
// with federation off, and bit-identical sharded execution. The suite
// name `Federation` is load-bearing: the sanitizer binaries register
// these same tests as asan.Federation.* / tsan.Federation.*.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/scale.hpp"
#include "hierarchy/federation.hpp"

namespace penelope::cluster {
namespace {

using hierarchy::FederationTopology;

// --- pure topology ----------------------------------------------------

TEST(Federation, LeafAssignmentCoversEveryNodeContiguously) {
  FederationTopology topo = FederationTopology::build(48, 6, 2);
  EXPECT_EQ(topo.n_nodes, 48);
  EXPECT_EQ(topo.n_leaves, 6);
  ASSERT_EQ(topo.leaf_of_node.size(), 48u);
  int prev = 0;
  for (int node = 0; node < topo.n_nodes; ++node) {
    int leaf = topo.leaf_of_node[static_cast<std::size_t>(node)];
    ASSERT_GE(leaf, 0);
    ASSERT_LT(leaf, topo.n_leaves);
    EXPECT_GE(leaf, prev) << "leaf spans must be contiguous";
    prev = leaf;
    auto idx = static_cast<std::size_t>(leaf);
    EXPECT_GE(node, topo.leaf_first_node[idx]);
    EXPECT_LT(node, topo.leaf_last_node[idx]);
  }
  // Spans partition [0, n_nodes).
  int covered = 0;
  for (int leaf = 0; leaf < topo.n_leaves; ++leaf) {
    auto idx = static_cast<std::size_t>(leaf);
    EXPECT_GT(topo.leaf_last_node[idx], topo.leaf_first_node[idx]);
    covered += topo.leaf_last_node[idx] - topo.leaf_first_node[idx];
  }
  EXPECT_EQ(covered, topo.n_nodes);
}

TEST(Federation, ParentChainsReachTheSingleRoot) {
  FederationTopology topo = FederationTopology::build(1000, 32, 4);
  ASSERT_GT(topo.total_pools, topo.n_leaves);
  int roots = 0;
  for (int p = 0; p < topo.total_pools; ++p) {
    if (topo.parent[static_cast<std::size_t>(p)] < 0) ++roots;
  }
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(topo.parent.back(), -1) << "root is the last pool index";
  for (int p = 0; p < topo.total_pools; ++p) {
    int cur = p;
    int hops = 0;
    while (topo.parent[static_cast<std::size_t>(cur)] >= 0) {
      cur = topo.parent[static_cast<std::size_t>(cur)];
      ASSERT_LE(++hops, topo.levels) << "parent chain longer than depth";
    }
    EXPECT_EQ(cur, topo.total_pools - 1);
  }
  // children[] is the exact inverse of parent[].
  for (int p = 0; p < topo.total_pools; ++p) {
    for (int child : topo.children[static_cast<std::size_t>(p)]) {
      EXPECT_EQ(topo.parent[static_cast<std::size_t>(child)], p);
    }
  }
}

TEST(Federation, WideFanoutCollapsesToLeavesPlusRoot) {
  FederationTopology topo = FederationTopology::build(64, 8, 8);
  EXPECT_EQ(topo.n_leaves, 8);
  EXPECT_EQ(topo.total_pools, 9);
  EXPECT_EQ(topo.levels, 2);
  EXPECT_EQ(topo.children.back().size(), 8u);
}

TEST(Federation, DegenerateShapesAreClamped) {
  // More pools than nodes: one node per leaf at most.
  FederationTopology topo = FederationTopology::build(4, 100, 2);
  EXPECT_LE(topo.n_leaves, 4);
  // A single pool is its own root: no federation edges at all.
  FederationTopology one = FederationTopology::build(16, 1, 8);
  EXPECT_EQ(one.total_pools, 1);
  EXPECT_EQ(one.parent[0], -1);
  EXPECT_TRUE(one.children[0].empty());
}

TEST(Federation, RepresentativeNodesLieInEachPoolsSubtree) {
  FederationTopology topo = FederationTopology::build(200, 16, 4);
  for (int p = 0; p < topo.total_pools; ++p) {
    auto idx = static_cast<std::size_t>(p);
    int rep = topo.representative_node[idx];
    ASSERT_GE(rep, 0);
    ASSERT_LT(rep, topo.n_nodes);
    if (topo.is_leaf(p)) {
      EXPECT_EQ(rep, topo.leaf_first_node[idx])
          << "leaf rep anchors shard placement to its first node";
    }
  }
}

// --- end-to-end federated runs ---------------------------------------

ClusterConfig federated_config(int n_nodes, int pools, int fanout,
                               std::uint64_t seed) {
  ClusterConfig cc;
  cc.manager = ManagerKind::kPenelope;
  cc.n_nodes = n_nodes;
  cc.per_socket_cap_watts = 70.0;
  cc.max_seconds = 600.0;
  cc.seed = seed;
  cc.federation_pools = pools;
  cc.federation_fanout = fanout;
  return cc;
}

/// First half donors (below the initial cap), second half hungry
/// (above it), long enough that nothing completes inside the test
/// horizon. The split is block-contiguous on purpose: leaf spans are
/// contiguous too, so donor leaves and hungry leaves are disjoint and
/// excess MUST cross pool boundaries to be useful — an interleaved mix
/// would let every leaf serve its own hungry nodes locally and the
/// federation layer would sit idle.
std::vector<workload::WorkloadProfile> mixed_profiles(int n_nodes) {
  std::vector<workload::WorkloadProfile> profiles;
  for (int i = 0; i < n_nodes; ++i) {
    bool hungry = i >= n_nodes / 2;
    workload::WorkloadProfile p;
    p.name = hungry ? "hungry" : "donor";
    p.phases.push_back(
        workload::Phase{"hot", hungry ? 220.0 : 110.0, 1e6});
    profiles.push_back(std::move(p));
  }
  return profiles;
}

TEST(Federation, FederatedRunConservesAndMovesPower) {
  ClusterConfig cc = federated_config(48, 6, 2, 7);
  Cluster cluster(cc, mixed_profiles(cc.n_nodes));
  ASSERT_TRUE(cluster.federated());
  cluster.run_for(30.0);

  // Donor excess crossed pool boundaries: aggregated reports flowed up
  // and batched transfers flowed back down.
  EXPECT_GT(cluster.metrics().federated_requests(), 0u);
  EXPECT_GT(cluster.metrics().federated_transfers(), 0u);
  EXPECT_GT(cluster.metrics().federated_watts_moved(), 0.0);
  EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6);
  RunResult result = cluster.collect_result();
  EXPECT_LT(result.audit.max_abs_conservation_error, 1e-6);
  EXPECT_LE(result.audit.max_live_overshoot, 1e-6);
}

TEST(Federation, ConservationHoldsUnderChurnAcrossSeeds) {
  // The issue's pinning property: pool ledgers + in-flight == global
  // budget to float tolerance while MTBF/MTTR churn crashes and
  // restarts nodes on a lossy fabric. Crash residues strand tagged with
  // the node's incarnation; rejoin self-reclaims at the bumped epoch —
  // the same ledger discipline as the flat path, audited every period.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ClusterConfig cc = federated_config(48, 6, 2, seed);
    cc.network.loss_probability = 0.03;
    cc.churn_enabled = true;
    cc.churn_mtbf_seconds = 15.0;
    cc.churn_mttr_seconds = 3.0;
    Cluster cluster(cc, mixed_profiles(cc.n_nodes));
    cluster.run_for(45.0);

    RunResult result = cluster.collect_result();
    EXPECT_GT(result.net_stats.node_failures, 0u) << "seed " << seed;
    EXPECT_GT(result.net_stats.node_recoveries, 0u) << "seed " << seed;
    EXPECT_LT(result.audit.max_abs_conservation_error, 1e-6)
        << "seed " << seed;
    EXPECT_LE(result.audit.max_live_overshoot, 1e-6) << "seed " << seed;
    EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6)
        << "seed " << seed;
  }
}

TEST(Federation, OffByDefaultMatchesTheGoldenTrace) {
  // Neutrality pin: pools=0 must replay the exact golden trace — the
  // federation code may not perturb a single RNG draw or event
  // timestamp of the classic path.
  ClusterConfig cc;
  cc.manager = ManagerKind::kPenelope;
  cc.n_nodes = 20;
  cc.per_socket_cap_watts = 60.0;
  cc.network.loss_probability = 0.02;
  cc.seed = 42;
  cc.federation_pools = 0;
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, {}));
  EXPECT_FALSE(cluster.federated());
  cluster.run_for(30.0);
  EXPECT_EQ(cluster.executed_events(), 1665u);
  EXPECT_EQ(cluster.trace_hash(), 0x868a597206f3db95ull);
}

TEST(Federation, TraceIsBitIdenticalAcrossSimJobs) {
  // Pools are shard boundaries: each pool actor lands on the shard
  // owning its subtree's first node, and all federation traffic crosses
  // the same staged-send merge as node traffic. The merged trace must
  // not depend on the shard count.
  auto run_once = [](int sim_jobs) {
    ClusterConfig cc = federated_config(48, 6, 2, 11);
    cc.sim_jobs = sim_jobs;
    cc.network.loss_probability = 0.02;
    Cluster cluster(cc, mixed_profiles(cc.n_nodes));
    cluster.run_for(20.0);
    return std::pair<std::uint64_t, std::uint64_t>(
        cluster.trace_hash(), cluster.executed_events());
  };
  auto serial = run_once(1);
  for (int jobs : {2, 4}) {
    EXPECT_EQ(run_once(jobs), serial) << "sim_jobs=" << jobs;
  }
}

TEST(Federation, ScaleRunRedistributesThroughPools) {
  // The completion-burst experiment on the federated path: the bursting
  // half's released watts must reach the hungry half through the pool
  // tree, conserving throughout.
  ScaleConfig sc;
  sc.n_nodes = 32;
  sc.pools = 6;
  sc.fanout = 2;
  sc.window_seconds = 20.0;
  sc.burst_at_seconds = 2.0;
  sc.seed = 3;
  ScaleResult result = run_scale_experiment(sc);
  EXPECT_GT(result.available_watts, 0.0);
  EXPECT_GT(result.shifted_watts, 0.0);
  EXPECT_TRUE(result.median_reached);
  EXPECT_GT(result.federated_transfers, 0u);
  EXPECT_LT(result.max_conservation_error, 1e-6);
}

// --- pending-events telemetry parity (one shard vs several) -----------

TEST(PendingEventsTelemetry, SerialEngineRecordsTheHighWater) {
  // Regression: the gauge was once only written on the sharded path,
  // and a sim_jobs=1 run exported 0 forever.
  ClusterConfig cc = federated_config(12, 0, 8, 5);
  Cluster cluster(cc, mixed_profiles(cc.n_nodes));
  ASSERT_EQ(cluster.config().sim_jobs, 1);
  cluster.run_for(10.0);
  EXPECT_GT(cluster.metrics().pending_events_high_water(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.metrics().pending_events_high_water(),
                   static_cast<double>(cluster.pending_high_water()));
}

TEST(PendingEventsTelemetry, ShardedEngineAgrees) {
  ClusterConfig cc = federated_config(12, 0, 8, 5);
  cc.sim_jobs = 2;
  Cluster cluster(cc, mixed_profiles(cc.n_nodes));
  ASSERT_GT(cluster.config().sim_jobs, 1);
  cluster.run_for(10.0);
  EXPECT_GT(cluster.metrics().pending_events_high_water(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.metrics().pending_events_high_water(),
                   static_cast<double>(cluster.pending_high_water()));
}

}  // namespace
}  // namespace penelope::cluster
