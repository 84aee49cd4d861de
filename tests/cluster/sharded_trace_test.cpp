// The sharded engine's hard contract, exercised end-to-end: a cluster
// run's merged (trace_hash, executed_events) — and the metrics the
// protocol derives from it — are bit-identical at sim_jobs=1 (serial
// engine), any jobs=N, and hardware_concurrency, across the golden,
// chaos, and churn configurations. run_for() is used throughout: both
// engines land exactly on the deadline, whereas completion-triggered
// stop() quantizes to a window boundary under sharding.
#include <gtest/gtest.h>

#include <thread>

#include "cluster/cluster.hpp"

namespace penelope::cluster {
namespace {

struct TraceFingerprint {
  std::uint64_t hash = 0;
  std::uint64_t executed = 0;
  std::uint64_t requests = 0;
  std::uint64_t timeouts = 0;
  double reclaimable = 0.0;

  bool operator==(const TraceFingerprint&) const = default;
};

ClusterConfig golden_config(int jobs) {
  ClusterConfig cc;
  cc.manager = ManagerKind::kPenelope;
  cc.n_nodes = 20;
  cc.per_socket_cap_watts = 60.0;
  cc.network.loss_probability = 0.02;
  cc.seed = 42;
  cc.sim_jobs = jobs;
  return cc;
}

TraceFingerprint run_config(ClusterConfig cc, double seconds) {
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, {}));
  cluster.run_for(seconds);
  TraceFingerprint fp;
  fp.hash = cluster.trace_hash();
  fp.executed = cluster.executed_events();
  fp.requests = cluster.metrics().requests_sent();
  fp.timeouts = cluster.metrics().timeouts();
  fp.reclaimable = cluster.metrics().reclaimable_watts();
  return fp;
}

int hardware_jobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) : 2;
}

TEST(SimJobs, GoldenTraceIsBitIdenticalAtAnyShardCount) {
  TraceFingerprint serial = run_config(golden_config(1), 30.0);
  // The serial fingerprint is itself pinned by GoldenTrace.*; here the
  // sharded engine must reproduce it exactly.
  EXPECT_EQ(serial.hash, 0x868a597206f3db95ull);
  for (int jobs : {2, 4, hardware_jobs()}) {
    EXPECT_EQ(run_config(golden_config(jobs), 30.0), serial)
        << "jobs=" << jobs;
  }
}

TEST(SimJobs, ChaosTraceIsBitIdenticalAtAnyShardCount) {
  // Duplication, reordering, and loss all draw from per-source streams
  // and flow through the staged-send path; none may perturb the merge.
  auto chaos = [](int jobs) {
    ClusterConfig cc = golden_config(jobs);
    cc.network.loss_probability = 0.05;
    cc.network.duplicate_probability = 0.03;
    cc.network.reorder_probability = 0.05;
    return cc;
  };
  TraceFingerprint serial = run_config(chaos(1), 30.0);
  for (int jobs : {2, 4, hardware_jobs()}) {
    EXPECT_EQ(run_config(chaos(jobs), 30.0), serial) << "jobs=" << jobs;
  }
}

TEST(SimJobs, ChurnTraceIsBitIdenticalAtAnyShardCount) {
  // Kill/recover faults are control-plane events: they run with every
  // shard quiescent, strictly before same-timestamp shard events, so
  // the fault schedule replays identically at any K. (Membership stays
  // off — with it on, the cluster falls back to serial; see below.)
  auto churn = [](int jobs) {
    ClusterConfig cc = golden_config(jobs);
    cc.membership_enabled = false;
    cc.churn_enabled = true;
    cc.churn_mtbf_seconds = 10.0;
    cc.churn_mttr_seconds = 2.0;
    return cc;
  };
  TraceFingerprint serial = run_config(churn(1), 30.0);
  for (int jobs : {2, 4, hardware_jobs()}) {
    EXPECT_EQ(run_config(churn(jobs), 30.0), serial) << "jobs=" << jobs;
  }
}

TEST(SimJobs, CentralManagerTraceIsBitIdenticalSharded) {
  // The central server actor lands on the last shard with its clients
  // spread across the rest — every grant crosses shards.
  auto central = [](int jobs) {
    ClusterConfig cc = golden_config(jobs);
    cc.manager = ManagerKind::kCentral;
    return cc;
  };
  TraceFingerprint serial = run_config(central(1), 30.0);
  for (int jobs : {2, 4}) {
    EXPECT_EQ(run_config(central(jobs), 30.0), serial) << "jobs=" << jobs;
  }
}

TEST(SimJobs, RepeatedShardedRunsAreBitIdentical) {
  EXPECT_EQ(run_config(golden_config(4), 30.0),
            run_config(golden_config(4), 30.0));
}

TEST(SimJobs, MembershipFallsBackToSerialExecution) {
  // Failure detection mutates shared suspicion state on every heartbeat;
  // until that is context-split, membership runs clamp sim_jobs to 1 —
  // with a warning, not silently wrong results.
  ClusterConfig cc = golden_config(4);
  cc.membership_enabled = true;
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, {}));
  EXPECT_EQ(cluster.config().sim_jobs, 1);
  cluster.run_for(5.0);
  EXPECT_GT(cluster.executed_events(), 0u);
}

TEST(SimJobs, ShardedRunToCompletionConservesPower) {
  // Full run() under sharding: completion stop, audits, and the final
  // conservation sweep all cross the control plane.
  ClusterConfig cc;
  cc.manager = ManagerKind::kPenelope;
  cc.n_nodes = 8;
  cc.per_socket_cap_watts = 70.0;
  cc.seed = 17;
  cc.max_seconds = 600.0;
  cc.sim_jobs = 4;
  workload::NpbConfig npb;
  npb.duration_scale = 0.12;
  npb.seed = 23;
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, npb));
  RunResult result = cluster.run();
  EXPECT_TRUE(result.all_completed);
  EXPECT_LT(result.audit.max_abs_conservation_error, 1e-6);
  EXPECT_LE(result.audit.max_live_overshoot, 1e-6);
}

TEST(SimJobs, JobsAreClampedToTheNodeCount) {
  ClusterConfig cc = golden_config(64);  // 64 > 20 nodes
  cc.n_nodes = 4;
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, {}));
  EXPECT_EQ(cluster.config().sim_jobs, 4);
  TraceFingerprint serial = run_config([] {
    ClusterConfig c = golden_config(1);
    c.n_nodes = 4;
    return c;
  }(), 10.0);
  cluster.run_for(10.0);
  EXPECT_EQ(cluster.trace_hash(), serial.hash);
}

}  // namespace
}  // namespace penelope::cluster
