// The DST nemesis vocabulary at the fabric level: asymmetric (one-way)
// partitions, per-link latency bursts, node pauses that preserve state,
// and wire corruption caught by the frame checksum. Each primitive is
// exercised directly against net::Network, including the
// trace-neutrality property: armed-but-zero nemeses draw nothing, so
// pre-nemesis seeds replay bit-identically.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/protocol.hpp"
#include "net/codec.hpp"

namespace penelope::net {
namespace {

Payload probe(int i) {
  return core::PowerPush{static_cast<double>(i), 0};
}

int probe_value(const Message& m) {
  const auto* push = m.as<core::PowerPush>();
  EXPECT_NE(push, nullptr);
  return push == nullptr ? -1 : static_cast<int>(push->watts);
}

struct Fixture {
  sim::ShardedSimulator engine{/*shards=*/1, /*lookahead=*/1};
  sim::Simulator& sim = engine.shard(0);
  NetworkConfig config;
  std::unique_ptr<Network> net;

  explicit Fixture(NetworkConfig cfg = {}) : config(cfg) {
    net = std::make_unique<Network>(engine, config);
  }
};

TEST(Nemesis, OneWayBlockSeversExactlyOneDirection) {
  Fixture f;
  std::vector<int> at_zero;
  std::vector<int> at_one;
  f.net->register_endpoint(0, [&](const Message& m) {
    at_zero.push_back(probe_value(m));
  });
  f.net->register_endpoint(1, [&](const Message& m) {
    at_one.push_back(probe_value(m));
  });
  f.net->set_one_way_block({0}, {1});
  f.net->send(0, 1, probe(1));  // blocked direction
  f.net->send(1, 0, probe(2));  // reverse stays open
  f.sim.run();
  EXPECT_TRUE(at_one.empty());
  ASSERT_EQ(at_zero.size(), 1u);
  EXPECT_EQ(at_zero[0], 2);
  EXPECT_EQ(f.net->stats().dropped_one_way, 1u);
}

TEST(Nemesis, OneWayBlockReportsDropReason) {
  Fixture f;
  f.net->register_endpoint(1, [](const Message&) {});
  DropReason reason{};
  int drops = 0;
  f.net->set_drop_handler([&](const Message&, DropReason r) {
    reason = r;
    ++drops;
  });
  f.net->set_one_way_block({0}, {1});
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(reason, DropReason::kOneWay);
}

TEST(Nemesis, ClearOneWayBlockRestoresTheDirection) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->set_one_way_block({0}, {1});
  f.net->send(0, 1, probe(1));
  f.net->clear_one_way_block();
  f.net->send(0, 1, probe(2));
  f.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.net->stats().dropped_one_way, 1u);
}

TEST(Nemesis, LatencyBurstDelaysOnlyTheBurstingSourceWindow) {
  Fixture f;
  common::Ticks from_bursting = 0;
  common::Ticks from_calm = 0;
  f.net->register_endpoint(2, [&](const Message& m) {
    if (m.src == 0) from_bursting = f.sim.now();
    if (m.src == 1) from_calm = f.sim.now();
  });
  const common::Ticks extra = common::from_millis(50);
  f.net->set_latency_burst(0, extra, common::from_millis(100));
  f.net->send(0, 2, probe(1));
  f.net->send(1, 2, probe(2));
  f.sim.run();
  EXPECT_GE(from_bursting, extra);
  EXPECT_LT(from_calm, extra);
  EXPECT_EQ(f.net->stats().burst_delayed, 1u);

  // Past `until` the burst is inert.
  f.sim.run_until(common::from_millis(200));
  common::Ticks late = 0;
  f.net->register_endpoint(2, [&](const Message&) { late = f.sim.now(); });
  const common::Ticks resume_at = f.sim.now();
  f.net->send(0, 2, probe(3));
  f.sim.run();
  EXPECT_LT(late - resume_at, extra);
  EXPECT_EQ(f.net->stats().burst_delayed, 1u);
}

TEST(Nemesis, PausedNodeQueuesDeliveriesAndReplaysInOrder) {
  Fixture f;
  std::vector<int> received;
  f.net->register_endpoint(1, [&](const Message& m) {
    received.push_back(probe_value(m));
  });
  f.net->pause_node(1);
  EXPECT_TRUE(f.net->node_paused(1));
  for (int i = 0; i < 4; ++i) f.net->send(0, 1, probe(i));
  f.sim.run();
  // Nothing delivered, nothing dropped: a stall, not a crash.
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(f.net->stats().paused_held, 4u);
  EXPECT_EQ(f.net->stats().dropped_total(), 0u);

  f.net->resume_node(1);
  EXPECT_FALSE(f.net->node_paused(1));
  f.sim.run();
  ASSERT_EQ(received.size(), 4u);
  // Canonical replay order: arrival time, then message id.
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Nemesis, PausedNodeHoldsItsOwnSendsUntilResume) {
  Fixture f;
  std::vector<int> received;
  f.net->register_endpoint(1, [&](const Message& m) {
    received.push_back(probe_value(m));
  });
  f.net->pause_node(0);
  f.net->send(0, 1, probe(7));
  f.sim.run();
  EXPECT_TRUE(received.empty());
  f.net->resume_node(0);
  f.sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 7);
}

TEST(Nemesis, PauseIsIdempotentAndResumeOfRunningNodeIsNoOp) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->resume_node(1);  // never paused: no-op
  f.net->pause_node(1);
  f.net->pause_node(1);
  f.net->send(0, 1, probe(1));
  f.sim.run();
  f.net->resume_node(1);
  f.net->resume_node(1);
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Nemesis, CorruptionIsAlwaysCaughtByTheChecksum) {
  NetworkConfig cfg;
  cfg.corrupt_probability = 1.0;
  Fixture f(cfg);
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  DropReason reason{};
  int drops = 0;
  f.net->set_drop_handler([&](const Message&, DropReason r) {
    reason = r;
    ++drops;
  });
  for (int i = 0; i < 32; ++i) f.net->send(0, 1, probe(i));
  f.sim.run();
  // Single-bit flips never survive the FNV-1a frame checksum: every
  // corrupted copy is dropped, none misparses into a delivery.
  EXPECT_EQ(received, 0);
  EXPECT_EQ(drops, 32);
  EXPECT_EQ(reason, DropReason::kCorrupt);
  EXPECT_EQ(f.net->stats().corrupted, 32u);
  EXPECT_EQ(f.net->stats().dropped_corrupt, 32u);
}

TEST(Nemesis, SetFaultRatesSwitchesWeatherMidRun) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_EQ(received, 1);

  FaultRates hostile;
  hostile.loss = 1.0;
  f.net->set_fault_rates(hostile);
  EXPECT_DOUBLE_EQ(f.net->fault_rates().loss, 1.0);
  f.net->send(0, 1, probe(2));
  f.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.net->stats().dropped_loss, 1u);

  f.net->set_fault_rates(FaultRates{});
  f.net->send(0, 1, probe(3));
  f.sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Nemesis, ZeroRatesAndUnusedNemesesAreTraceNeutral) {
  // A fabric with every nemesis knob present-but-zero must consume the
  // exact Rng draw sequence of a plain fabric: same sampled latencies,
  // same delivery times. This is the property that keeps the golden
  // trace hash stable across the nemesis vocabulary's introduction.
  auto run = [](bool touch_nemeses) {
    NetworkConfig cfg;
    cfg.seed = 99;
    cfg.duplicate_probability = 0.0;
    cfg.corrupt_probability = 0.0;
    Fixture f(cfg);
    if (touch_nemeses) {
      f.net->set_fault_rates(FaultRates{});  // all zero
      f.net->set_latency_burst(3, common::from_millis(10),
                               common::from_millis(1));  // expires at 1ms
    }
    std::vector<common::Ticks> arrivals;
    f.net->register_endpoint(1, [&](const Message&) {
      arrivals.push_back(f.sim.now());
    });
    f.sim.run_until(common::from_millis(2));
    for (int i = 0; i < 64; ++i) f.net->send(0, 1, probe(i));
    f.sim.run();
    return arrivals;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace penelope::net
