// Crash–restart churn and the membership layer: failure detection,
// epoch-guarded reclamation of dead nodes' watts, and rejoin at a
// bumped incarnation. The conservation audit is the spine of every
// test here — churn moves power between caps, pools, the in-flight
// ledger, and the stranded/reclaimable ledger, and none of those moves
// may mint or leak a single watt.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"

namespace penelope::cluster {
namespace {

ClusterConfig membership_config(ManagerKind manager, int n_nodes,
                                std::uint64_t seed) {
  ClusterConfig cc;
  cc.manager = manager;
  cc.n_nodes = n_nodes;
  cc.per_socket_cap_watts = 70.0;
  cc.max_seconds = 600.0;
  cc.seed = seed;
  cc.membership_enabled = true;
  return cc;
}

/// Long-running flat profiles so membership timelines (suspect at 3 s,
/// dead at 6 s of silence) play out before any workload completes.
std::vector<workload::WorkloadProfile> long_profiles(int n_nodes) {
  std::vector<workload::WorkloadProfile> profiles;
  for (int i = 0; i < n_nodes; ++i) {
    workload::WorkloadProfile p;
    p.name = i % 2 ? "hungry" : "donor";
    p.phases.push_back(workload::Phase{"hot", i % 2 ? 220.0 : 110.0, 1e6});
    profiles.push_back(std::move(p));
  }
  return profiles;
}

TEST(Churn, CrashStrandsResidueTaggedWithIncarnation) {
  ClusterConfig cc = membership_config(ManagerKind::kPenelope, 6, 17);
  Cluster cluster(cc, long_profiles(cc.n_nodes));
  cluster.run_for(5.0);

  cluster.crash_node(2);
  EXPECT_TRUE(cluster.node_crashed(2));
  // The crash seized the cap share above the safe floor plus the banked
  // pool, and stranded it against (2, incarnation 1).
  EXPECT_GT(cluster.metrics().reclaimable_watts(), 0.0);
  EXPECT_GT(cluster.metrics().stranded_watts(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.node_pool_watts(2), 0.0);
  EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6);
  double tagged = cluster.metrics().reclaimable_watts();

  // Six missed heartbeats later the survivors declare it dead and
  // exactly one of them consumes the reclaim tag into its pool.
  cluster.run_for(10.0);
  EXPECT_GT(cluster.metrics().nodes_suspected(), 0u);
  EXPECT_GT(cluster.metrics().nodes_declared_dead(), 0u);
  EXPECT_GE(cluster.metrics().reclaims(), 1u);
  EXPECT_GE(cluster.metrics().watts_reclaimed(), tagged - 1e-9);
  EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6);
  EXPECT_LT(cluster.collect_result().audit.max_abs_conservation_error,
            1e-6);
}

TEST(Churn, RestartSelfReclaimsAndBumpsIncarnation) {
  ClusterConfig cc = membership_config(ManagerKind::kPenelope, 6, 18);
  Cluster cluster(cc, long_profiles(cc.n_nodes));
  cluster.run_for(5.0);

  EXPECT_EQ(cluster.node_incarnation(3), 1u);
  cluster.crash_node(3);
  double tagged = cluster.metrics().reclaimable_watts();
  ASSERT_GT(tagged, 0.0);

  // Back up after 1 s: no peer has even suspected it yet, so the crash
  // residue is still tagged — the restarting node takes it back itself.
  cluster.run_for(1.0);
  cluster.recover_node(3);
  EXPECT_FALSE(cluster.node_crashed(3));
  EXPECT_EQ(cluster.node_incarnation(3), 2u);
  EXPECT_GE(cluster.metrics().watts_reclaimed(), tagged - 1e-9);
  EXPECT_NEAR(cluster.metrics().reclaimable_watts(), 0.0, 1e-9);

  cluster.run_for(5.0);
  EXPECT_EQ(cluster.metrics().false_suspicions(), 0u);
  EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6);
  EXPECT_LT(cluster.collect_result().audit.max_abs_conservation_error,
            1e-6);
}

TEST(Churn, IncarnationBumpsOnEveryRestart) {
  ClusterConfig cc = membership_config(ManagerKind::kPenelope, 4, 19);
  Cluster cluster(cc, long_profiles(cc.n_nodes));
  cluster.run_for(2.0);
  cluster.crash_node(1);
  cluster.run_for(1.0);
  cluster.recover_node(1);
  cluster.run_for(2.0);
  cluster.crash_node(1);
  cluster.run_for(1.0);
  cluster.recover_node(1);
  EXPECT_EQ(cluster.node_incarnation(1), 3u);
  // Idempotence: a double crash or double recover is a no-op.
  cluster.recover_node(1);
  cluster.crash_node(1);
  cluster.crash_node(1);
  cluster.recover_node(1);
  EXPECT_EQ(cluster.node_incarnation(1), 4u);
  EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6);
}

TEST(Churn, FalseSuspicionNeverReclaimsALiveNodesWatts) {
  // Partition node 0 away long enough to be declared dead, then heal.
  // Its watts were never stranded (it never crashed), so the epoch
  // guard must hand the suspectors nothing; when its heartbeats resume
  // at the same incarnation, the suspicion is recorded as false.
  ClusterConfig cc = membership_config(ManagerKind::kPenelope, 6, 20);
  Cluster cluster(cc, long_profiles(cc.n_nodes));
  cluster.run_for(3.0);
  cluster.network().set_partition({{0}, {1, 2, 3, 4, 5}});
  cluster.run_for(12.0);  // silence > dead_after_missed on both sides
  EXPECT_GT(cluster.metrics().nodes_declared_dead(), 0u);
  EXPECT_EQ(cluster.metrics().reclaims(), 0u);
  EXPECT_DOUBLE_EQ(cluster.metrics().watts_reclaimed(), 0.0);

  cluster.network().clear_partition();
  cluster.run_for(5.0);
  EXPECT_GT(cluster.metrics().false_suspicions(), 0u);
  EXPECT_EQ(cluster.metrics().reclaims(), 0u);
  EXPECT_DOUBLE_EQ(cluster.metrics().watts_reclaimed(), 0.0);
  EXPECT_FALSE(cluster.node_crashed(0));
  EXPECT_EQ(cluster.node_incarnation(0), 1u);
  EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6);
  EXPECT_LT(cluster.collect_result().audit.max_abs_conservation_error,
            1e-6);
}

TEST(Churn, CentralServerReclaimsDeadClientsShare) {
  // The SLURM-analogue path: a dead client's cap share above the safe
  // floor flows back into the server's budget; the client rejoins at a
  // bumped incarnation and is re-admitted through the normal request
  // path.
  ClusterConfig cc = membership_config(ManagerKind::kCentral, 6, 21);
  Cluster cluster(cc, long_profiles(cc.n_nodes));
  cluster.run_for(3.0);
  cluster.crash_node(1);
  double tagged = cluster.metrics().reclaimable_watts();
  ASSERT_GT(tagged, 0.0);

  cluster.run_for(10.0);  // detector: suspected at 3 s, dead at 6 s
  EXPECT_GT(cluster.metrics().nodes_declared_dead(), 0u);
  EXPECT_GE(cluster.metrics().reclaims(), 1u);
  // The whole tag flowed into the server's budget (the cache itself may
  // have been granted onward since — the reclaim ledger is the proof).
  EXPECT_GE(cluster.metrics().watts_reclaimed(), tagged - 1e-9);
  EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6);

  cluster.recover_node(1);
  cluster.run_for(5.0);
  EXPECT_EQ(cluster.node_incarnation(1), 2u);
  EXPECT_FALSE(cluster.node_crashed(1));
  EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6);
  EXPECT_LT(cluster.collect_result().audit.max_abs_conservation_error,
            1e-6);
}

TEST(Churn, ScriptedCrashAndRecoverFaultEvents) {
  // The same lifecycle through the declarative fault plan.
  ClusterConfig cc = membership_config(ManagerKind::kPenelope, 6, 22);
  cc.faults = {
      FaultEvent{FaultEvent::Kind::kCrashNode, common::from_seconds(5.0),
                 2},
      FaultEvent{FaultEvent::Kind::kRecoverNode,
                 common::from_seconds(9.0), 2},
  };
  Cluster cluster(cc, long_profiles(cc.n_nodes));
  cluster.run_for(20.0);
  EXPECT_FALSE(cluster.node_crashed(2));
  EXPECT_EQ(cluster.node_incarnation(2), 2u);
  EXPECT_GT(cluster.metrics().watts_reclaimed(), 0.0);
  EXPECT_LT(cluster.collect_result().audit.max_abs_conservation_error,
            1e-6);
}

TEST(Churn, AdversarialChurnConservesPowerAcrossSeeds) {
  // The pinning property test: random crash–restart churn on a lossy
  // fabric, with a partition layered on top mid-run so suspicion,
  // false suspicion, rejoin, and reclamation all interleave. Across
  // three seeds the periodic audit must never see more than float
  // noise of error, and live power must never exceed the budget.
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
    ClusterConfig cc = membership_config(ManagerKind::kPenelope, 10, seed);
    cc.network.loss_probability = 0.03;
    cc.churn_enabled = true;
    cc.churn_mtbf_seconds = 15.0;
    cc.churn_mttr_seconds = 3.0;
    cc.max_seconds = 60.0;
    cc.faults = {
        FaultEvent{FaultEvent::Kind::kPartition,
                   common::from_seconds(20.0), 5},
        FaultEvent{FaultEvent::Kind::kHealPartition,
                   common::from_seconds(32.0), 0},
    };
    Cluster cluster(cc, long_profiles(cc.n_nodes));
    cluster.run_for(55.0);

    RunResult result = cluster.collect_result();
    EXPECT_GT(result.net_stats.node_failures, 0u) << "seed " << seed;
    EXPECT_GT(result.net_stats.node_recoveries, 0u) << "seed " << seed;
    EXPECT_GT(result.watts_reclaimed, 0.0) << "seed " << seed;
    EXPECT_LT(result.audit.max_abs_conservation_error, 1e-6)
        << "seed " << seed;
    EXPECT_LE(result.audit.max_live_overshoot, 1e-6) << "seed " << seed;
    EXPECT_NEAR(cluster.audit().conservation_error(), 0.0, 1e-6)
        << "seed " << seed;
  }
}

TEST(Churn, ChurnScheduleIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    ClusterConfig cc = membership_config(ManagerKind::kPenelope, 8, seed);
    cc.churn_enabled = true;
    cc.churn_mtbf_seconds = 10.0;
    cc.churn_mttr_seconds = 2.0;
    cc.max_seconds = 40.0;
    Cluster cluster(cc, long_profiles(cc.n_nodes));
    cluster.run_for(35.0);
    return cluster.trace_hash();
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(Churn, MembershipOffZeroChurnMatchesTheGoldenTrace) {
  // Neutrality pin: with membership and churn at their defaults (off),
  // the exact golden-trace configuration must replay bit-identically —
  // the membership layer may not perturb a single RNG draw or event
  // timestamp of the seed behavior.
  ClusterConfig cc;
  cc.manager = ManagerKind::kPenelope;
  cc.n_nodes = 20;
  cc.per_socket_cap_watts = 60.0;
  cc.network.loss_probability = 0.02;
  cc.seed = 42;
  cc.membership_enabled = false;
  cc.churn_enabled = false;
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, {}));
  cluster.run_for(30.0);
  EXPECT_EQ(cluster.executed_events(), 1665u);
  EXPECT_EQ(cluster.trace_hash(), 0x868a597206f3db95ull);
  EXPECT_EQ(cluster.metrics().requests_sent(), 352u);
  EXPECT_EQ(cluster.metrics().timeouts(), 15u);
  EXPECT_EQ(cluster.metrics().nodes_suspected(), 0u);
  EXPECT_EQ(cluster.metrics().watts_reclaimed(), 0.0);
}

}  // namespace
}  // namespace penelope::cluster
