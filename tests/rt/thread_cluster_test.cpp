// Real-concurrency exercises of the shared protocol logic: on this
// machine all threads share one core, which is the harshest interleaving
// regime — exactly where lock or accounting bugs would surface.
#include "rt/thread_cluster.hpp"

#include <gtest/gtest.h>

#include "rt/overhead.hpp"

namespace penelope::rt {
namespace {

ThreadClusterConfig quick_config(int nodes) {
  ThreadClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.initial_cap_watts = 120.0;
  cfg.period = common::from_millis(10);
  cfg.request_timeout = common::from_millis(10);
  cfg.seed = 77;
  return cfg;
}

std::vector<std::vector<DemandPhase>> steady_scripts(
    int nodes, double donor_demand, double hungry_demand) {
  std::vector<std::vector<DemandPhase>> scripts;
  for (int i = 0; i < nodes; ++i) {
    double demand = (i < nodes / 2) ? donor_demand : hungry_demand;
    scripts.push_back({DemandPhase{demand, common::from_seconds(60.0)}});
  }
  return scripts;
}

TEST(ThreadCluster, ConservesPowerUnderRealConcurrency) {
  ThreadClusterConfig cfg = quick_config(4);
  ThreadCluster cluster(cfg, steady_scripts(4, 60.0, 240.0));
  cluster.run_for(common::from_millis(600));
  EXPECT_NEAR(cluster.total_live_watts(), cluster.budget(), 1e-6);
}

TEST(ThreadCluster, PowerShiftsTowardHungryNodes) {
  ThreadClusterConfig cfg = quick_config(4);
  ThreadCluster cluster(cfg, steady_scripts(4, 60.0, 240.0));
  cluster.run_for(common::from_millis(1500));
  auto reports = cluster.reports();
  ASSERT_EQ(reports.size(), 4u);
  // Donors (0,1) end below the initial cap; hungry nodes (2,3) at or
  // above it.
  double donor_caps = reports[0].final_cap + reports[1].final_cap;
  double hungry_caps = reports[2].final_cap + reports[3].final_cap;
  EXPECT_LT(donor_caps, 2 * cfg.initial_cap_watts);
  EXPECT_GT(hungry_caps, donor_caps);
}

TEST(ThreadCluster, DecidersActuallyIterate) {
  ThreadClusterConfig cfg = quick_config(2);
  ThreadCluster cluster(cfg, steady_scripts(2, 60.0, 240.0));
  cluster.run_for(common::from_millis(500));
  for (const auto& report : cluster.reports()) {
    EXPECT_GT(report.decider.steps, 10u) << "node " << report.id;
  }
}

TEST(ThreadCluster, TransactionsComplete) {
  ThreadClusterConfig cfg = quick_config(4);
  ThreadCluster cluster(cfg, steady_scripts(4, 60.0, 240.0));
  cluster.run_for(common::from_millis(1500));
  std::uint64_t grants = 0;
  for (const auto& report : cluster.reports()) {
    grants += report.grants_received;
  }
  EXPECT_GT(grants, 0u);
}

TEST(ThreadCluster, CapsStayInSafeRange) {
  ThreadClusterConfig cfg = quick_config(6);
  ThreadCluster cluster(cfg, steady_scripts(6, 50.0, 245.0));
  cluster.run_for(common::from_millis(1000));
  for (const auto& report : cluster.reports()) {
    EXPECT_GE(report.final_cap, cfg.safe_range.min_watts - 1e-9);
    EXPECT_LE(report.final_cap, cfg.safe_range.max_watts + 1e-9);
    EXPECT_GE(report.final_pool, 0.0);
  }
}

TEST(ThreadCluster, RepeatedRunsDoNotDeadlock) {
  for (int i = 0; i < 3; ++i) {
    ThreadClusterConfig cfg = quick_config(3);
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    ThreadCluster cluster(cfg, steady_scripts(3, 60.0, 240.0));
    cluster.run_for(common::from_millis(200));
    EXPECT_NEAR(cluster.total_live_watts(), cluster.budget(), 1e-6);
  }
}

TEST(ThreadCluster, PhasedScriptsChangeRoles) {
  // Node 0 starts as the donor then goes hot; node 1 does the reverse.
  // After the flip the power flow must reverse too — the script walker
  // and urgency both working under real time.
  ThreadClusterConfig cfg = quick_config(2);
  std::vector<std::vector<DemandPhase>> scripts;
  scripts.push_back({DemandPhase{60.0, common::from_millis(400)},
                     DemandPhase{240.0, common::from_seconds(60)}});
  scripts.push_back({DemandPhase{240.0, common::from_millis(400)},
                     DemandPhase{60.0, common::from_seconds(60)}});
  ThreadCluster cluster(cfg, std::move(scripts));
  cluster.run_for(common::from_millis(1500));
  auto reports = cluster.reports();
  // Both nodes both donated and received at some point.
  for (const auto& report : reports) {
    EXPECT_GT(report.decider.watts_donated, 0.0) << report.id;
    EXPECT_GT(report.decider.excess_steps, 0u) << report.id;
    EXPECT_GT(report.decider.hungry_steps, 0u) << report.id;
  }
  // And nothing leaked through the role swap.
  EXPECT_NEAR(cluster.total_live_watts(), cluster.budget(), 1e-6);
}

TEST(ThreadCluster, MetricsSnapshotMatchesReports) {
  ThreadClusterConfig cfg = quick_config(4);
  cfg.flight_recorder_capacity = 1 << 14;
  ThreadCluster cluster(cfg, steady_scripts(4, 60.0, 240.0));
  cluster.run_for(common::from_millis(1000));

  auto reports = cluster.reports();
  std::uint64_t report_grants = 0;
  std::uint64_t report_timeouts = 0;
  for (const auto& report : reports) {
    report_grants += report.grants_received;
    report_timeouts += report.timeouts;
  }
  ASSERT_GT(report_grants, 0u);

  // The registry snapshot carries the same counts, one labeled series
  // per node, aggregated across the per-thread shards.
  std::uint64_t snap_grants = 0;
  std::uint64_t snap_timeouts = 0;
  std::uint64_t snap_requests = 0;
  int grant_series = 0;
  for (const auto& sample : cluster.metrics_snapshot()) {
    if (sample.name == "rt_grants_applied_total") {
      snap_grants += static_cast<std::uint64_t>(sample.value);
      ++grant_series;
      ASSERT_EQ(sample.labels.size(), 1u);
      EXPECT_EQ(sample.labels[0].first, "node");
    } else if (sample.name == "rt_timeouts_total") {
      snap_timeouts += static_cast<std::uint64_t>(sample.value);
    } else if (sample.name == "rt_requests_sent_total") {
      snap_requests += static_cast<std::uint64_t>(sample.value);
    }
  }
  EXPECT_EQ(grant_series, cfg.n_nodes);
  EXPECT_EQ(snap_grants, report_grants);
  EXPECT_EQ(snap_timeouts, report_timeouts);
  // Every sent request resolved as exactly one grant or timeout; the
  // timeout count can additionally include rounds whose request never
  // left (peer inbox full), so sent <= grants + timeouts.
  EXPECT_GE(snap_requests, snap_grants);
  EXPECT_LE(snap_requests, snap_grants + snap_timeouts);

  // The flight recorder journaled the same protocol traffic.
  const telemetry::FlightRecorder& recorder = cluster.flight_recorder();
  EXPECT_TRUE(recorder.enabled());
  std::uint64_t journal_sent = 0;
  std::uint64_t journal_grants = 0;
  for (const auto& record : recorder.snapshot()) {
    if (record.kind == telemetry::TxnEventKind::kRequestSent) {
      ++journal_sent;
      EXPECT_NE(record.txn_id, 0u);
    }
    if (record.kind == telemetry::TxnEventKind::kGrantReceived) {
      ++journal_grants;
    }
  }
  if (recorder.dropped() == 0) {
    EXPECT_EQ(journal_sent, snap_requests);
    EXPECT_EQ(journal_grants, report_grants);
  }
}

TEST(ThreadCluster, CrashRestartBumpsIncarnationAndConserves) {
  // Node 1 crashes 150 ms in and restarts 150 ms later: its volatile
  // state is wiped, the seized watts ride the orphan ledger while it is
  // down, and the restart self-reclaims them into the pool.
  ThreadClusterConfig cfg = quick_config(4);
  cfg.crash_events = {ThreadCrashEvent{1, common::from_millis(150),
                                       common::from_millis(150)}};
  ThreadCluster cluster(cfg, steady_scripts(4, 60.0, 240.0));
  cluster.run_for(common::from_millis(1000));

  auto reports = cluster.reports();
  EXPECT_EQ(reports[1].crashes, 1u);
  EXPECT_EQ(reports[1].restarts, 1u);
  EXPECT_EQ(reports[1].incarnation, 2u);
  EXPECT_NEAR(reports[1].orphaned_watts, 0.0, 1e-9);
  for (int i : {0, 2, 3}) {
    EXPECT_EQ(reports[static_cast<std::size_t>(i)].crashes, 0u);
    EXPECT_EQ(reports[static_cast<std::size_t>(i)].incarnation, 1u);
  }
  EXPECT_NEAR(cluster.total_live_watts() + cluster.orphaned_watts(),
              cluster.budget(), 1e-6);
}

TEST(ThreadCluster, NodeStillDownAtShutdownLeavesOrphanedWatts) {
  // The down window outlasts the run: the node never restarts, so its
  // seized watts stay on the orphan ledger — visible, attributed, and
  // still part of the conservation identity.
  ThreadClusterConfig cfg = quick_config(4);
  cfg.crash_events = {ThreadCrashEvent{2, common::from_millis(100),
                                       common::from_seconds(60.0)}};
  ThreadCluster cluster(cfg, steady_scripts(4, 60.0, 240.0));
  cluster.run_for(common::from_millis(500));

  auto reports = cluster.reports();
  EXPECT_EQ(reports[2].crashes, 1u);
  EXPECT_EQ(reports[2].restarts, 0u);
  EXPECT_EQ(reports[2].incarnation, 1u);
  EXPECT_GT(reports[2].orphaned_watts, 0.0);
  EXPECT_GT(cluster.orphaned_watts(), 0.0);
  EXPECT_NEAR(cluster.total_live_watts() + cluster.orphaned_watts(),
              cluster.budget(), 1e-6);
}

TEST(ThreadCluster, PeersKeepTradingAroundACrashedNode) {
  // With one node dark for most of the run, requests routed to it time
  // out like probes of any dead peer; the survivors keep exchanging
  // power and shutdown still joins cleanly.
  ThreadClusterConfig cfg = quick_config(4);
  cfg.crash_events = {ThreadCrashEvent{3, common::from_millis(100),
                                       common::from_seconds(60.0)}};
  ThreadCluster cluster(cfg, steady_scripts(4, 60.0, 240.0));
  cluster.run_for(common::from_millis(1200));

  std::uint64_t survivor_grants = 0;
  for (const auto& report : cluster.reports()) {
    if (report.id != 3) survivor_grants += report.grants_received;
  }
  EXPECT_GT(survivor_grants, 0u);
  EXPECT_NEAR(cluster.total_live_watts() + cluster.orphaned_watts(),
              cluster.budget(), 1e-6);
}

TEST(SpinKernel, DeterministicAndWorkProportional) {
  EXPECT_EQ(spin_kernel(1000), spin_kernel(1000));
  EXPECT_NE(spin_kernel(1000), spin_kernel(1001));
}

TEST(Overhead, MeasuresAllNineWorkloads) {
  OverheadConfig cfg;
  cfg.work_seconds = 0.02;  // keep the test quick
  cfg.repetitions = 1;
  auto results = measure_overhead(cfg);
  ASSERT_EQ(results.size(), 9u);
  for (const auto& r : results) {
    EXPECT_GT(r.baseline_seconds, 0.0) << r.workload;
    EXPECT_GT(r.penelope_seconds, 0.0) << r.workload;
    // Overhead can be noisy at this tiny scale but must not be absurd.
    EXPECT_LT(r.overhead_fraction, 2.0) << r.workload;
    EXPECT_GT(r.overhead_fraction, -0.9) << r.workload;
  }
}

TEST(Overhead, DeciderTicksWhileTheWorkloadRuns) {
  // Many decider periods per measured run: the one node's demand (150 W)
  // is above its cap (120 W) with an empty pool, so every tick sends a
  // request that its peerless transport refuses and that times out at
  // once — the path the quick test above is too short to reach.
  OverheadConfig cfg;
  cfg.decider_period = common::from_millis(2);
  cfg.work_seconds = 0.1;
  cfg.repetitions = 1;
  auto results = measure_overhead(cfg);
  ASSERT_EQ(results.size(), 9u);
  for (const auto& r : results) {
    EXPECT_GT(r.penelope_seconds, 0.0) << r.workload;
  }
}

}  // namespace
}  // namespace penelope::rt
