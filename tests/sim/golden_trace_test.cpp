// Golden-trace determinism pin for the event engine.
//
// The baked constants pin the exact event sequence of this
// configuration: a 20-node Penelope cluster with 2% message loss, so the
// run exercises the request/timeout/cancel churn that dominates real
// workloads, plus periodic decider/audit/trace timers. Any engine change
// that drops a firing, shifts a re-arm, or perturbs an RNG draw breaks
// this test even if every behavioral test still passes.
//
// Rebaselined twice since the original pre-rewrite capture: once for the
// indexed 4-ary heap engine (identical sequence, new hash constant), and
// once for the sharded-execution PR, which (a) made trace_hash an
// order-insensitive sum of murmur3-mixed timestamps so shard-local
// hashes merge by addition, and (b) moved network latency/loss draws and
// message ids onto per-source-node streams so one node's sends cannot
// perturb another's draws — a prerequisite for shard-layout-invariant
// traces, and a deliberate (small) change to the serial sequence.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sim/simulator.hpp"

namespace penelope {
namespace {

cluster::Cluster make_golden_cluster() {
  cluster::ClusterConfig cc;
  cc.manager = cluster::ManagerKind::kPenelope;
  cc.n_nodes = 20;
  cc.per_socket_cap_watts = 60.0;
  cc.network.loss_probability = 0.02;  // force timeout + cancel churn
  cc.seed = 42;
  auto profiles = cluster::make_pair_workloads(
      workload::NpbApp::kEP, workload::NpbApp::kDC, cc.n_nodes, {});
  return cluster::Cluster(cc, std::move(profiles));
}

TEST(GoldenTrace, TwentyNodePenelopeRunMatchesPreRewriteEngine) {
  cluster::Cluster cl = make_golden_cluster();
  cl.run_for(30.0);
  EXPECT_EQ(cl.executed_events(), 1665u);
  EXPECT_EQ(cl.trace_hash(), 0x868a597206f3db95ull);
  EXPECT_EQ(cl.now_ticks(), 30000000);
  EXPECT_EQ(cl.pending_events(), 22u);
  EXPECT_EQ(cl.metrics().requests_sent(), 352u);
  EXPECT_EQ(cl.metrics().timeouts(), 15u);
}

TEST(GoldenTrace, TwentyNodeRunToCompletionIsPinned) {
  // run_for pins a fixed window; this pins the completion stop as well.
  // At sim_jobs=1 the run ends right after the event that completes the
  // last node, so a stop that landed later (at a window boundary, say)
  // would execute more events and change both counts.
  cluster::Cluster cl = make_golden_cluster();
  cluster::RunResult result = cl.run();
  ASSERT_TRUE(result.all_completed);
  EXPECT_EQ(cl.executed_events(), 11689u);
  EXPECT_EQ(cl.trace_hash(), 0xc9defe2fe1cf2203ull);
  EXPECT_EQ(cl.now_ticks(), 211008991);
  EXPECT_EQ(cl.pending_events(), 22u);
  EXPECT_EQ(result.requests_sent, 2451u);
  EXPECT_EQ(result.timeouts, 102u);
}

TEST(GoldenTrace, RepeatedRunsAreBitIdentical) {
  cluster::Cluster a = make_golden_cluster();
  cluster::Cluster b = make_golden_cluster();
  a.run_for(30.0);
  b.run_for(30.0);
  EXPECT_EQ(a.executed_events(), b.executed_events());
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  EXPECT_EQ(a.metrics().requests_sent(), b.metrics().requests_sent());
}

}  // namespace
}  // namespace penelope
