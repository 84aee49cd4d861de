// Unit tests for the sharded conservative-window engine itself: merged
// views, control-plane ordering, barrier posts/stop, the one-shard rules
// (one heap, inline posts, immediate stop), and — the heart of the
// K-invariance contract — the canonical merge order of staged sends
// whose arrivals collide on the same tick.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace penelope::sim {
namespace {

using common::from_millis;
using common::from_seconds;
using common::Ticks;

TEST(ShardedSim, MergedViewsMatchASerialRunOfTheSameEvents) {
  // The same multiset of event timestamps, executed by one serial engine
  // and by three shards, must report identical (executed, hash) — the
  // trace hash is an order-insensitive sum, so the split cannot show.
  std::vector<Ticks> stamps = {10, 10, 25, 40, 40, 40, 90, 1000, 5000};
  Simulator serial;
  for (Ticks at : stamps) serial.schedule_at(at, [] {});
  serial.run_until(from_seconds(1.0));

  ShardedSimulator engine(3, /*lookahead=*/100);
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    engine.shard(static_cast<int>(i % 3)).schedule_at(stamps[i], [] {});
  }
  engine.run_until(from_seconds(1.0));

  EXPECT_EQ(engine.executed_events(), serial.executed_events());
  EXPECT_EQ(engine.trace_hash(), serial.trace_hash());
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.now(), from_seconds(1.0));
}

TEST(ShardedSim, ControlEventsRunBeforeEqualTimestampShardEvents) {
  // Cluster-global mutations (faults, churn) live on the control engine
  // and must be visible to every shard event at the same timestamp, for
  // any shard count. Each shard records into its own slot — the barrier
  // handshake orders the control write before the window reads.
  ShardedSimulator engine(2, /*lookahead=*/50);
  bool flag = false;
  std::array<int, 2> saw = {-1, -1};
  engine.control().schedule_at(1000, [&flag] { flag = true; });
  engine.shard(0).schedule_at(1000, [&] { saw[0] = flag ? 1 : 0; });
  engine.shard(1).schedule_at(1000, [&] { saw[1] = flag ? 1 : 0; });
  engine.run_until(2000);
  EXPECT_EQ(saw[0], 1);
  EXPECT_EQ(saw[1], 1);
}

TEST(ShardedSim, PostToBarrierStopEndsTheRunAtTheWindowBoundary) {
  ShardedSimulator engine(2, /*lookahead=*/10);
  engine.shard(0).schedule_at(10, [&engine] {
    engine.post_to_barrier([&engine] { engine.stop(); });
  });
  bool far_ran = false;
  engine.shard(1).schedule_at(from_seconds(100.0),
                              [&far_ran] { far_ran = true; });
  engine.run_until(from_seconds(1000.0));
  EXPECT_TRUE(engine.stopped());
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(engine.executed_events(), 1u);
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(ShardedSim, OneShardRunsEqualTicksInSchedulingOrder) {
  // One shard is one heap: control() and shard(0) are the same engine,
  // so equal-timestamp events run in the order they were scheduled, not
  // control-first.
  ShardedSimulator engine(1, /*lookahead=*/100);
  EXPECT_EQ(&engine.control(), &engine.shard(0));
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    Simulator& heap = i % 2 == 0 ? engine.control() : engine.shard(0);
    heap.schedule_at(500, [&order, i] { order.push_back(i); });
  }
  engine.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(engine.executed_events(), 6u);
  EXPECT_EQ(engine.now(), 1000);
}

TEST(ShardedSim, OneShardRunsBarrierPostsInline) {
  // With one shard there is no barrier to wait for: the post runs
  // before the posting event returns.
  ShardedSimulator engine(1, /*lookahead=*/100);
  std::vector<int> order;
  engine.shard(0).schedule_at(10, [&] {
    engine.post_to_barrier([&order] { order.push_back(1); });
    order.push_back(2);
  });
  engine.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedSim, OneShardStopHaltsAfterTheCurrentEvent) {
  // The one-shard counterpart of the barrier-stop test below: stop()
  // inside an event ends the run right after that event, not at a
  // window boundary, so a later event inside the same lookahead stays
  // pending.
  ShardedSimulator engine(1, /*lookahead=*/100);
  engine.shard(0).schedule_at(10, [&engine] { engine.stop(); });
  bool later_ran = false;
  engine.shard(0).schedule_at(20, [&later_ran] { later_ran = true; });
  engine.run_until(1000);
  EXPECT_TRUE(engine.stopped());
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(engine.executed_events(), 1u);
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_EQ(engine.now(), 10);
}

TEST(ShardedSim, ReserveTracksPendingHighWater) {
  ShardedSimulator engine(2, /*lookahead=*/10);
  engine.reserve(32);
  for (int i = 0; i < 8; ++i) {
    engine.shard(i % 2).schedule_at(100 + i, [] {});
  }
  EXPECT_EQ(engine.pending_events(), 8u);
  engine.run_until(1000);
  EXPECT_GE(engine.pending_high_water(), 4u);  // 4 per shard before run
}

/// Six sources all land messages on node 0 at the same tick (zero
/// jitter). Returns (id, duplicate) in delivery order.
std::vector<std::pair<std::uint64_t, bool>> collision_order(int shards,
                                                            bool duplicate) {
  const int n = 6;
  net::NetworkConfig cfg;
  cfg.latency.jitter_stddev = 0;  // every latency == base, exact collision
  cfg.duplicate_probability = duplicate ? 1.0 : 0.0;
  ShardedSimulator engine(shards, cfg.latency.effective_floor());
  std::vector<int> shard_of(n);
  for (int i = 0; i < n; ++i) shard_of[i] = i * shards / n;
  net::Network net(engine, cfg, shard_of);

  std::vector<std::pair<std::uint64_t, bool>> order;
  net.register_endpoint(0, [&order](const net::Message& m) {
    order.emplace_back(m.id, m.duplicate);
  });
  // Send in *descending* source order, two messages per source: the
  // staging order is the reverse of the canonical one, so the flush has
  // to actually sort.
  for (int src = n - 1; src >= 0; --src) {
    for (int k = 0; k < 2; ++k) {
      net.send(src, 0, core::Heartbeat{});
    }
  }
  engine.run_until(from_millis(1.0));
  return order;
}

/// The (id, duplicate) sequence collision_order's sends produce, in send
/// order: sources 5..0, two messages each; a duplicated message
/// dispatches its copy before its original.
std::vector<std::pair<std::uint64_t, bool>> send_order(bool duplicate) {
  std::vector<std::pair<std::uint64_t, bool>> order;
  for (std::uint64_t src = 6; src-- > 0;) {
    for (std::uint64_t k = 1; k <= 2; ++k) {
      const std::uint64_t id = ((src + 1) << 40) | k;
      if (duplicate) order.emplace_back(id, true);
      order.emplace_back(id, false);
    }
  }
  return order;
}

TEST(ShardedSim, EqualTimestampCollisionsMergeInSourceIdOrder) {
  // All twelve arrivals collide on one tick. With two or more shards the
  // canonical flush order is (arrival, message id, duplicate); ids embed
  // the source node, so delivery runs src 0..5 regardless of send order
  // — and regardless of how the six sources were laid out across shards.
  auto baseline = collision_order(2, false);
  ASSERT_EQ(baseline.size(), 12u);
  for (std::size_t i = 1; i < baseline.size(); ++i) {
    EXPECT_LT(baseline[i - 1].first, baseline[i].first);
  }
  EXPECT_EQ(collision_order(3, false), baseline);
  EXPECT_EQ(collision_order(6, false), baseline);
  // One shard schedules directly: equal-tick arrivals run in send order,
  // the serial rule the golden trace was recorded under.
  EXPECT_EQ(collision_order(1, false), send_order(false));
}

TEST(ShardedSim, DuplicateCopiesDeliverAfterTheirOriginalOnCollision) {
  // With 100% duplication and zero jitter, each copy collides with its
  // original; with two or more shards the canonical order puts the
  // original first, at every shard count.
  auto baseline = collision_order(2, true);
  ASSERT_EQ(baseline.size(), 24u);
  for (std::size_t i = 0; i < baseline.size(); i += 2) {
    EXPECT_EQ(baseline[i].first, baseline[i + 1].first);
    EXPECT_FALSE(baseline[i].second);
    EXPECT_TRUE(baseline[i + 1].second);
  }
  EXPECT_EQ(collision_order(3, true), baseline);
  EXPECT_EQ(collision_order(6, true), baseline);
  // One shard delivers in send order, where the copy is dispatched
  // before its original.
  EXPECT_EQ(collision_order(1, true), send_order(true));
}

}  // namespace
}  // namespace penelope::sim
