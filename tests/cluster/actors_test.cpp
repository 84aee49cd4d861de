#include "cluster/actors.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "central/protocol.hpp"
#include "core/protocol.hpp"

namespace penelope::cluster {
namespace {

using common::from_seconds;

NodeConfig test_node_config(int id) {
  NodeConfig nc;
  nc.id = id;
  nc.initial_cap_watts = 160.0;
  nc.epsilon_watts = 5.0;
  nc.period = common::kTicksPerSecond;
  nc.request_timeout = common::kTicksPerSecond;
  nc.start_offset = 1000;  // 1 ms
  nc.rapl.safe_range = {.min_watts = 80.0, .max_watts = 250.0};
  nc.rapl.idle_watts = 40.0;
  nc.measurement_noise_watts = 0.0;
  nc.seed = 99 + static_cast<std::uint64_t>(id);
  return nc;
}

/// The Penelope protocol config matching `nc` (same id, caps, period).
core::PenelopeConfig test_protocol(const NodeConfig& nc) {
  core::PenelopeConfig pc;
  pc.decider.initial_cap_watts = nc.initial_cap_watts;
  pc.decider.epsilon_watts = nc.epsilon_watts;
  pc.decider.safe_range = nc.rapl.safe_range;
  pc.decider.txn_node = nc.id;
  pc.period = nc.period;
  return pc;
}

workload::WorkloadProfile steady_profile(double demand, double work) {
  workload::WorkloadProfile p;
  p.name = "steady";
  p.phases.push_back(workload::Phase{"hot", demand, work});
  return p;
}

TEST(NodeBody, TickDrivesApplicationToCompletion) {
  sim::Simulator sim;
  NodeConfig nc = test_node_config(0);
  // Demand below cap: runs at full speed, 5 s of work.
  NodeBody body(sim, nc, steady_profile(120.0, 5.0));
  body.rapl().set_cap(nc.initial_cap_watts);
  bool completed = false;
  common::Ticks completed_at = 0;
  body.set_on_complete([&](net::NodeId, common::Ticks at) {
    completed = true;
    completed_at = at;
  });
  for (int t = 1; t <= 10; ++t) body.tick(from_seconds(t));
  EXPECT_TRUE(completed);
  EXPECT_TRUE(body.app_done());
  // RAPL converges in ~0.5 s; the app should finish close to 5 s.
  EXPECT_NEAR(common::to_seconds(completed_at), 5.0, 0.5);
}

TEST(NodeBody, DemandDropsToIdleAfterCompletion) {
  sim::Simulator sim;
  NodeConfig nc = test_node_config(0);
  NodeBody body(sim, nc, steady_profile(120.0, 2.0));
  body.rapl().set_cap(nc.initial_cap_watts);
  for (int t = 1; t <= 5; ++t) body.tick(from_seconds(t));
  EXPECT_NEAR(body.rapl().demand(), nc.rapl.idle_watts, 1e-9);
}

TEST(NodeBody, MeasurementNoiseAppliedToReturnOnly) {
  sim::Simulator sim;
  NodeConfig nc = test_node_config(0);
  nc.measurement_noise_watts = 5.0;
  NodeBody body(sim, nc, steady_profile(120.0, 1000.0));
  body.rapl().set_cap(nc.initial_cap_watts);
  double sum = 0.0;
  const int n = 200;
  for (int t = 1; t <= n; ++t) sum += body.tick(from_seconds(t));
  // Mean of noisy reads should still track the true ~120 W.
  EXPECT_NEAR(sum / n, 120.0, 2.0);
}

TEST(FairNodeActor, CapNeverChanges) {
  sim::Simulator sim;
  NodeConfig nc = test_node_config(0);
  FairNodeActor actor(sim, nc, steady_profile(200.0, 30.0));
  sim.run_until(from_seconds(10.0));
  EXPECT_DOUBLE_EQ(actor.cap(), nc.initial_cap_watts);
}

struct PenelopePairFixture {
  sim::ShardedSimulator engine{/*shards=*/1, /*lookahead=*/1};
  sim::Simulator& sim = engine.shard(0);
  net::Network net;
  ClusterMetrics metrics;
  std::unique_ptr<PenelopeNodeActor> donor;
  std::unique_ptr<PenelopeNodeActor> hungry;

  PenelopePairFixture(double donor_demand, double hungry_demand,
                      net::NetworkConfig net_cfg = {})
      : net(engine, net_cfg) {
    net::SerialServerConfig service{.service_min = 5, .service_max = 10,
                                    .queue_capacity = 64, .seed = 3};
    // Node 0 donates (low demand), node 1 is hungry.
    donor = std::make_unique<PenelopeNodeActor>(
        sim, net, test_node_config(0), test_protocol(test_node_config(0)),
        service,
        steady_profile(donor_demand, 1e6),
        [] { return net::NodeId{1}; }, metrics);
    hungry = std::make_unique<PenelopeNodeActor>(
        sim, net, test_node_config(1), test_protocol(test_node_config(1)),
        service,
        steady_profile(hungry_demand, 1e6),
        [] { return net::NodeId{0}; }, metrics);
  }
};

TEST(PenelopeNodeActor, PowerFlowsFromDonorToHungry) {
  PenelopePairFixture f(/*donor=*/100.0, /*hungry=*/240.0);
  // The protocol reaches a sawtooth equilibrium (the donor periodically
  // reclaims toward its initial cap via urgency), so assert on the
  // time-averaged caps, not an instantaneous snapshot.
  double donor_sum = 0.0;
  double hungry_sum = 0.0;
  const int kSeconds = 30;
  for (int s = 1; s <= kSeconds; ++s) {
    f.sim.run_until(from_seconds(s));
    donor_sum += f.donor->cap();
    hungry_sum += f.hungry->cap();
  }
  EXPECT_LT(donor_sum / kSeconds, 140.0);
  EXPECT_GT(hungry_sum / kSeconds, 170.0);
  EXPECT_GT(f.metrics.turnaround_ms().size(), 0u);
  EXPECT_GT(f.hungry->node().decider().stats().watts_received, 0.0);
}

TEST(PenelopeNodeActor, ConservationHolds) {
  PenelopePairFixture f(100.0, 240.0);
  f.sim.run_until(from_seconds(30.0));
  double total = f.donor->cap() + f.donor->pool_watts() +
                 f.hungry->cap() + f.hungry->pool_watts() +
                 f.metrics.in_flight_watts() + f.metrics.stranded_watts();
  EXPECT_NEAR(total, 320.0, 1e-6);
}

TEST(PenelopeNodeActor, TurnaroundIsSubMillisecondOnQuietNetwork) {
  PenelopePairFixture f(100.0, 240.0);
  f.sim.run_until(from_seconds(20.0));
  ASSERT_FALSE(f.metrics.turnaround_ms().empty());
  for (double ms : f.metrics.turnaround_ms()) {
    EXPECT_LT(ms, 5.0);
    EXPECT_GT(ms, 0.0);
  }
}

TEST(PenelopeNodeActor, DeadPeerCausesTimeoutsNotWedge) {
  PenelopePairFixture f(100.0, 240.0);
  f.net.fail_node(0);  // the donor (and target of all hungry requests)
  f.sim.run_until(from_seconds(15.0));
  EXPECT_GT(f.metrics.timeouts(), 5u);
  // The hungry node keeps running at its own cap; no crash, no wedge.
  EXPECT_NEAR(f.hungry->cap(), 160.0, 1.0);
}

TEST(PenelopeNodeActor, KillManagementFreezesCapButAppRuns) {
  PenelopePairFixture f(100.0, 240.0);
  f.sim.run_until(from_seconds(10.0));
  double donor_cap = f.donor->cap();
  f.donor->kill_management();
  f.sim.run_until(from_seconds(25.0));
  EXPECT_DOUBLE_EQ(f.donor->cap(), donor_cap);
  EXPECT_FALSE(f.donor->body().app_done());
  EXPECT_GT(f.donor->body().fraction_complete(), 0.0);
}

TEST(PenelopeNodeActor, StaleMapStaysBoundedUnderSustainedLoss) {
  net::NetworkConfig cfg;
  cfg.loss_probability = 0.6;
  PenelopePairFixture f(100.0, 240.0, cfg);
  f.sim.run_until(from_seconds(90.0));
  EXPECT_GT(f.metrics.timeouts(), 10u);
  EXPECT_LE(f.donor->node().stale_entries(), 256u);
  EXPECT_LE(f.hungry->node().stale_entries(), 256u);
  // Losses leave watts in flight forever (no drop handler here), but the
  // ledger still accounts for every one of them.
  double total = f.donor->cap() + f.donor->pool_watts() +
                 f.hungry->cap() + f.hungry->pool_watts() +
                 f.metrics.in_flight_watts() + f.metrics.stranded_watts();
  EXPECT_NEAR(total, 320.0, 1e-6);
}

TEST(PenelopeNodeActor, DuplicatedMessagesNeverDoubleApply) {
  // Every request, grant, and push is delivered twice: the receive
  // windows must drop the second copies, or caps+pools would mint power.
  net::NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  PenelopePairFixture f(100.0, 240.0, cfg);
  f.sim.run_until(from_seconds(30.0));
  EXPECT_GT(f.metrics.duplicates_dropped(), 0u);
  EXPECT_GT(f.hungry->node().decider().stats().watts_received, 0.0);
  double total = f.donor->cap() + f.donor->pool_watts() +
                 f.hungry->cap() + f.hungry->pool_watts() +
                 f.metrics.in_flight_watts() + f.metrics.stranded_watts();
  EXPECT_NEAR(total, 320.0, 1e-6);
}

TEST(PenelopeNodeActor, LateReorderedGrantsAreBankedExactlyOnce) {
  // Reorder delays past the request timeout force the stale-grant path;
  // combined with duplication, a late grant can also arrive twice. The
  // watts must land in the pool exactly once.
  net::NetworkConfig cfg;
  cfg.duplicate_probability = 0.25;
  cfg.reorder_probability = 0.5;
  cfg.reorder_delay = 3 * common::kTicksPerSecond;
  PenelopePairFixture f(100.0, 240.0, cfg);
  f.sim.run_until(from_seconds(40.0));
  EXPECT_GT(f.metrics.timeouts(), 0u);
  EXPECT_GT(f.metrics.duplicates_dropped(), 0u);
  double total = f.donor->cap() + f.donor->pool_watts() +
                 f.hungry->cap() + f.hungry->pool_watts() +
                 f.metrics.in_flight_watts() + f.metrics.stranded_watts();
  EXPECT_NEAR(total, 320.0, 1e-6);
}

TEST(PenelopeNodeActor, PartialGrantAppliesAreNotOverCounted) {
  // Demand far above the safe ceiling pins the hungry cap at max: grants
  // can only partially apply and the remainder is banked. Every applied
  // watt must trace back to exactly one release — counting full grants
  // as applied (and re-counting the banked part on a later pool take)
  // breaks this inequality.
  workload::WorkloadProfile surge;
  surge.name = "surge";
  for (int cycle = 0; cycle < 8; ++cycle) {
    surge.phases.push_back(workload::Phase{"hot", 400.0, 8.0});
    surge.phases.push_back(workload::Phase{"cool", 60.0, 4.0});
  }
  surge.phases.push_back(workload::Phase{"tail", 400.0, 1e6});

  sim::ShardedSimulator engine(/*shards=*/1, /*lookahead=*/1);
  sim::Simulator& sim = engine.shard(0);
  net::Network net(engine, net::NetworkConfig{});
  ClusterMetrics metrics;
  net::SerialServerConfig service{.service_min = 5, .service_max = 10,
                                  .queue_capacity = 64, .seed = 3};
  auto donor = std::make_unique<PenelopeNodeActor>(
      sim, net, test_node_config(0), test_protocol(test_node_config(0)),
      service, steady_profile(100.0, 1e6), [] { return net::NodeId{1}; },
      metrics);
  auto hungry = std::make_unique<PenelopeNodeActor>(
      sim, net, test_node_config(1), test_protocol(test_node_config(1)),
      service, surge,
      [] { return net::NodeId{0}; }, metrics);
  sim.run_until(from_seconds(80.0));

  double applied = 0.0;
  double released = 0.0;
  for (const auto& e : metrics.applies()) applied += e.watts;
  for (const auto& e : metrics.releases()) released += e.watts;
  EXPECT_GT(applied, 0.0);
  EXPECT_LE(applied, released + 1e-6);
  EXPECT_LE(hungry->cap(), 250.0 + 1e-9);  // safe ceiling held
}

TEST(PenelopeNodeActor, BlacklistedStickyPeerFallsBackToRedraw) {
  sim::ShardedSimulator engine(/*shards=*/1, /*lookahead=*/1);
  sim::Simulator& sim = engine.shard(0);
  net::Network net(engine, net::NetworkConfig{});
  ClusterMetrics metrics;
  net::SerialServerConfig service{.service_min = 5, .service_max = 10,
                                  .queue_capacity = 64, .seed = 3};
  auto sticky_protocol = [](int id) {
    core::PenelopeConfig pc = test_protocol(test_node_config(id));
    pc.sticky_peers = true;
    pc.blacklist_after_timeouts = 3;
    return pc;
  };
  net::NodeId target = 0;
  auto donor0 = std::make_unique<PenelopeNodeActor>(
      sim, net, test_node_config(0), sticky_protocol(0), service,
      steady_profile(100.0, 1e6), [] { return net::NodeId{1}; }, metrics);
  auto donor1 = std::make_unique<PenelopeNodeActor>(
      sim, net, test_node_config(1), sticky_protocol(1), service,
      steady_profile(100.0, 1e6), [] { return net::NodeId{0}; }, metrics);
  auto hungry = std::make_unique<PenelopeNodeActor>(
      sim, net, test_node_config(2), sticky_protocol(2), service,
      steady_profile(240.0, 1e6), [&] { return target; }, metrics);

  // Phase 1: the hungry node sticks to donor 0 (its only draw) and keeps
  // getting paid.
  sim.run_until(from_seconds(10.0));
  std::uint64_t served_by_0 = donor0->pool_service_stats().accepted;
  EXPECT_GT(served_by_0, 0u);

  // Phase 2: blacklist donor 0 and point fresh draws at donor 1. The
  // sticky branch must honour the blacklist and fall through to the
  // redraw instead of probing donor 0 forever.
  hungry->node().force_peer_blacklist(0, from_seconds(1e6));
  target = 1;
  std::uint64_t served_by_1 = donor1->pool_service_stats().accepted;
  double received_before = hungry->node().decider().stats().watts_received;
  sim.run_until(from_seconds(25.0));
  EXPECT_EQ(donor0->pool_service_stats().accepted, served_by_0);
  EXPECT_GT(donor1->pool_service_stats().accepted, served_by_1);
  EXPECT_GT(hungry->node().decider().stats().watts_received, received_before);
}

TEST(PenelopeNodeActor, UnknownTxnGrantIsCountedAndBanked) {
  // A grant for a transaction the node never issued (its stale entry was
  // evicted, or the sender is confused). The responder debited real
  // watts, so the node banks them — and counts and journals the grant as
  // unknown, like every other requester does.
  PenelopePairFixture f(100.0, 240.0);
  f.metrics.recorder().enable(64);
  // Forge it before either node's first tick (1 ms) so nothing else
  // touches the donor's pool.
  const std::uint64_t forged = core::make_txn_id(0, 0, 999);
  f.metrics.grant_departed(7.0);
  f.net.send(1, 0, core::PowerGrant{7.0, forged});
  f.sim.run_until(500);

  EXPECT_EQ(f.metrics.unknown_txn_grants(), 1u);
  EXPECT_NEAR(f.donor->pool_watts(), 7.0, 1e-12);
  EXPECT_NEAR(f.metrics.in_flight_watts(), 0.0, 1e-12);
  std::vector<telemetry::TxnEventKind> kinds;
  for (const auto& record : f.metrics.recorder().for_txn(forged))
    kinds.push_back(record.kind);
  EXPECT_EQ(kinds, (std::vector<telemetry::TxnEventKind>{
                       telemetry::TxnEventKind::kUnknownTxn,
                       telemetry::TxnEventKind::kLateGrant,
                       telemetry::TxnEventKind::kBanked}));
}

TEST(CentralClientActor, UnknownTxnGrantIsStrandedNotApplied) {
  sim::ShardedSimulator engine(/*shards=*/1, /*lookahead=*/1);
  sim::Simulator& sim = engine.shard(0);
  net::Network net(engine, net::NetworkConfig{});
  ClusterMetrics metrics;
  NodeConfig nc = test_node_config(0);
  // Demand just under the cap: the client neither donates nor requests,
  // so the only traffic is the grant forged below.
  CentralClientActor client(sim, net, nc, /*server_id=*/5,
                            steady_profile(158.0, 1e6), metrics);
  sim.run_until(from_seconds(3.0));
  double cap_before = client.cap();

  // A grant for a transaction this client never issued (mis-routed or
  // spoofed). Applying it would mint power; it must be stranded instead.
  metrics.grant_departed(25.0);
  net.send(5, 0, central::CentralGrant{25.0, false, 0xBEEF});
  sim.run_until(from_seconds(4.0));

  EXPECT_DOUBLE_EQ(client.cap(), cap_before);
  EXPECT_EQ(metrics.unknown_txn_grants(), 1u);
  EXPECT_NEAR(metrics.stranded_watts(), 25.0, 1e-9);
  EXPECT_NEAR(metrics.in_flight_watts(), 0.0, 1e-9);
}

TEST(CentralClientActor, DuplicatedUnknownGrantStrandsOnlyOnce) {
  // The duplicate of a forged/unknown grant must be refused by the
  // receive window before the stranding branch can run twice.
  sim::ShardedSimulator engine(/*shards=*/1, /*lookahead=*/1);
  sim::Simulator& sim = engine.shard(0);
  net::NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  net::Network net(engine, cfg);
  ClusterMetrics metrics;
  NodeConfig nc = test_node_config(0);
  CentralClientActor client(sim, net, nc, /*server_id=*/5,
                            steady_profile(158.0, 1e6), metrics);
  sim.run_until(from_seconds(3.0));

  metrics.grant_departed(25.0);
  net.send(5, 0, central::CentralGrant{25.0, false, 0xBEEF});
  sim.run_until(from_seconds(4.0));

  EXPECT_EQ(metrics.unknown_txn_grants(), 1u);
  EXPECT_EQ(metrics.duplicates_dropped(), 1u);
  EXPECT_NEAR(metrics.stranded_watts(), 25.0, 1e-9);
  EXPECT_NEAR(metrics.in_flight_watts(), 0.0, 1e-9);
}

TEST(PenelopeNodeActor, UrgencyRestoresStarvedNode) {
  // Donor gives away power while idle, then becomes hungry below its
  // initial cap: urgency must pull it back up even though the system has
  // no free excess.
  sim::ShardedSimulator engine(/*shards=*/1, /*lookahead=*/1);
  sim::Simulator& sim = engine.shard(0);
  net::Network net(engine, net::NetworkConfig{});
  ClusterMetrics metrics;
  net::SerialServerConfig service{.service_min = 5, .service_max = 10,
                                  .queue_capacity = 64, .seed = 3};
  // Node 0: idle 12 s (donates down to safe min), then hot forever.
  workload::WorkloadProfile phased;
  phased.name = "phased";
  phased.phases = {workload::Phase{"idle", 40.0, 12.0},
                   workload::Phase{"hot", 240.0, 1e6}};
  auto node0 = std::make_unique<PenelopeNodeActor>(
      sim, net, test_node_config(0), test_protocol(test_node_config(0)),
      service, phased,
      [] { return net::NodeId{1}; }, metrics);
  // Node 1: always hungry; absorbs node 0's donations.
  auto node1 = std::make_unique<PenelopeNodeActor>(
      sim, net, test_node_config(1), test_protocol(test_node_config(1)),
      service, steady_profile(240.0, 1e6), [] { return net::NodeId{0}; },
      metrics);

  sim.run_until(from_seconds(10.0));
  EXPECT_LT(node0->cap(), 100.0);   // donated down
  EXPECT_GT(node1->cap(), 180.0);   // absorbed it

  sim.run_until(from_seconds(40.0));
  // Node 0 went hot at ~12 s below its initial cap: urgent requests make
  // node 1 release down to its initial cap and return the power.
  EXPECT_GT(node0->cap(), 140.0);
  EXPECT_LE(node1->cap(), 165.0);
  EXPECT_GT(node0->node().decider().stats().urgent_requests, 0u);
  EXPECT_GT(node1->node().decider().stats().urgency_releases, 0u);
}

}  // namespace
}  // namespace penelope::cluster
