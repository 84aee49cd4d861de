#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "core/protocol.hpp"
#include "net/codec.hpp"

namespace penelope::net {
namespace {

// Probe payload for transport-level tests: a PowerPush whose watts field
// carries the test's sequence number (the payload type is irrelevant to
// the fabric; it only routes and drops).
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

TEST(Network, DeliversToRegisteredEndpoint) {
  Fixture f;
  std::vector<int> received;
  f.net->register_endpoint(1, [&](const Message& m) {
    received.push_back(probe_value(m));
  });
  f.net->send(0, 1, probe(42));
  f.sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 42);
  EXPECT_EQ(f.net->stats().delivered, 1u);
}

TEST(Network, DeliveryIsDelayedByLatency) {
  Fixture f;
  common::Ticks delivered_at = 0;
  f.net->register_endpoint(1, [&](const Message&) {
    delivered_at = f.sim.now();
  });
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_GE(delivered_at, f.config.latency.base -
                              3 * f.config.latency.jitter_stddev);
  EXPECT_GT(delivered_at, 0);
}

TEST(Network, MessageCarriesMetadata) {
  Fixture f;
  Message captured;
  f.net->register_endpoint(2, [&](const Message& m) { captured = m; });
  f.sim.run_until(100);
  std::uint64_t id = f.net->send(7, 2, core::PowerGrant{3.5, 0xFEED, 4});
  f.sim.run();
  EXPECT_EQ(captured.src, 7);
  EXPECT_EQ(captured.dst, 2);
  EXPECT_EQ(captured.id, id);
  EXPECT_EQ(captured.sent_at, 100);
  ASSERT_NE(captured.as<core::PowerGrant>(), nullptr);
  EXPECT_DOUBLE_EQ(captured.as<core::PowerGrant>()->watts, 3.5);
  EXPECT_EQ(captured.as<core::PowerGrant>()->txn_id, 0xFEEDu);
  EXPECT_EQ(captured.as<core::PowerGrant>()->hint_peer, 4);
  // Wrong-type access yields nullptr, not UB.
  EXPECT_EQ(captured.as<core::PowerRequest>(), nullptr);
  EXPECT_EQ(captured.as<core::PowerPush>(), nullptr);
}

TEST(Network, DefaultMessageHoldsNoPayload) {
  Message m;
  EXPECT_TRUE(std::holds_alternative<std::monostate>(m.payload));
  EXPECT_EQ(m.as<core::PowerRequest>(), nullptr);
  EXPECT_EQ(payload_wire_bytes(m.payload), 0u);
}

TEST(Network, MissingEndpointCountsAsDrop) {
  Fixture f;
  f.net->send(0, 99, probe(1));
  f.sim.run();
  EXPECT_EQ(f.net->stats().dropped_no_endpoint, 1u);
  EXPECT_EQ(f.net->stats().delivered, 0u);
}

TEST(Network, DeadDestinationDropsOnArrival) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->fail_node(1);
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net->stats().dropped_dead_node, 1u);
}

TEST(Network, DeadSourceCannotSend) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->fail_node(0);
  EXPECT_EQ(f.net->send(0, 1, probe(1)), 0u);
  f.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net->stats().sent, 0u);
}

TEST(Network, MessageInFlightWhenNodeDiesIsLost) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->send(0, 1, probe(1));
  // Kill the destination before the latency elapses.
  f.sim.schedule_at(1, [&] { f.net->fail_node(1); });
  f.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net->stats().dropped_dead_node, 1u);
}

TEST(Network, RecoverNodeResumesDelivery) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->fail_node(1);
  f.net->send(0, 1, probe(1));
  f.sim.run();
  f.net->recover_node(1);
  f.net->send(0, 1, probe(2));
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, FailNodeIsIdempotent) {
  // Churn schedules and fault scripts may both kill the same node; a
  // double kill (or a recover of a live node) must not double-count
  // transition stats or otherwise disturb bookkeeping.
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->fail_node(1);
  f.net->fail_node(1);
  EXPECT_EQ(f.net->stats().node_failures, 1u);
  f.net->recover_node(1);
  f.net->recover_node(1);
  EXPECT_EQ(f.net->stats().node_recoveries, 1u);
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_EQ(received, 1);
  f.net->fail_node(1);
  EXPECT_EQ(f.net->stats().node_failures, 2u);
}

TEST(Network, RecoverOfNeverFailedNodeIsNoOp) {
  Fixture f;
  f.net->recover_node(3);
  EXPECT_EQ(f.net->stats().node_recoveries, 0u);
}

TEST(Network, FailedNodeStaysDeadAcrossPartitionChanges) {
  // fail_node and set_partition are orthogonal: healing a partition
  // must not resurrect a dead node, and recovering a node must not
  // punch through an active partition.
  Fixture f;
  int received = 0;
  f.net->register_endpoint(2, [&](const Message&) { ++received; });
  f.net->fail_node(2);
  f.net->set_partition({{0, 1}, {2, 3}});
  f.net->clear_partition();
  f.net->send(0, 2, probe(1));
  f.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net->stats().dropped_dead_node, 1u);

  // Recover the node while a fresh partition separates it from the
  // sender: traffic now drops at the partition, not the node.
  f.net->recover_node(2);
  f.net->set_partition({{0, 1}, {2, 3}});
  f.net->send(0, 2, probe(2));
  f.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net->stats().dropped_partition, 1u);
  f.net->clear_partition();
  f.net->send(0, 2, probe(3));
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, FullLossDropsEverything) {
  NetworkConfig cfg;
  cfg.loss_probability = 1.0;
  Fixture f(cfg);
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  for (int i = 0; i < 10; ++i) f.net->send(0, 1, probe(i));
  f.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net->stats().dropped_loss, 10u);
}

TEST(Network, PartialLossRateIsApproximate) {
  NetworkConfig cfg;
  cfg.loss_probability = 0.3;
  Fixture f(cfg);
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) f.net->send(0, 1, probe(i));
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.7, 0.03);
}

TEST(Network, PartitionBlocksCrossIslandTraffic) {
  Fixture f;
  int received_1 = 0;
  int received_2 = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received_1; });
  f.net->register_endpoint(2, [&](const Message&) { ++received_2; });
  f.net->set_partition({{0, 1}, {2, 3}});
  f.net->send(0, 1, probe(1));  // same island: delivered
  f.net->send(0, 2, probe(1));  // cross island: dropped
  f.sim.run();
  EXPECT_EQ(received_1, 1);
  EXPECT_EQ(received_2, 0);
  EXPECT_EQ(f.net->stats().dropped_partition, 1u);
}

TEST(Network, ClearPartitionRestoresTraffic) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(2, [&](const Message&) { ++received; });
  f.net->set_partition({{0}, {2}});
  f.net->send(0, 2, probe(1));
  f.net->clear_partition();
  f.net->send(0, 2, probe(1));
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, UnpartitionedNodesShareDefaultIsland) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(9, [&](const Message&) { ++received; });
  f.net->set_partition({{0, 1}});  // 8 and 9 are in no island (-1)
  f.net->send(8, 9, probe(1));
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, DropHandlerSeesLostMessages) {
  NetworkConfig cfg;
  cfg.loss_probability = 1.0;
  Fixture f(cfg);
  f.net->register_endpoint(1, [](const Message&) {});
  std::vector<int> dropped;
  std::vector<DropReason> reasons;
  f.net->set_drop_handler([&](const Message& m, DropReason reason) {
    dropped.push_back(probe_value(m));
    reasons.push_back(reason);
  });
  f.net->send(0, 1, probe(17));
  f.sim.run();
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], 17);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], DropReason::kLoss);
}

TEST(Network, DropHandlerFiresForDeadDestination) {
  Fixture f;
  int drops = 0;
  f.net->set_drop_handler([&](const Message&, DropReason reason) {
    ++drops;
    EXPECT_EQ(reason, DropReason::kDeadNode);
  });
  f.net->fail_node(1);
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_EQ(drops, 1);
}

TEST(Network, DropHandlerReportsPartitionReason) {
  Fixture f;
  std::vector<DropReason> reasons;
  f.net->set_drop_handler([&](const Message&, DropReason reason) {
    reasons.push_back(reason);
  });
  f.net->register_endpoint(2, [](const Message&) {});
  f.net->set_partition({{0, 1}, {2, 3}});
  f.net->send(0, 2, probe(1));
  f.sim.run();
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], DropReason::kPartition);
}

TEST(Network, LatencySamplesArePositiveAndNearBase) {
  Fixture f;
  common::OnlineStats stats;
  for (int i = 0; i < 1000; ++i) {
    auto lat = static_cast<double>(f.net->sample_latency());
    EXPECT_GE(lat, 1.0);
    stats.add(lat);
  }
  EXPECT_NEAR(stats.mean(), static_cast<double>(f.config.latency.base),
              static_cast<double>(f.config.latency.jitter_stddev));
}

TEST(Network, RemoveEndpointStopsDelivery) {
  Fixture f;
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) { ++received; });
  f.net->remove_endpoint(1);
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net->stats().dropped_no_endpoint, 1u);
}

TEST(Network, RangeEndpointReachesEveryNodeInTheRange) {
  // One handler registered over [10, 20) serves all ten nodes; msg.dst
  // tells it which node a message is for. Nodes outside the range have
  // no endpoint.
  Fixture f;
  std::vector<std::pair<NodeId, int>> received;
  f.net->register_endpoint_range(10, 20, [&](const Message& m) {
    received.emplace_back(m.dst, probe_value(m));
  });
  for (NodeId n = 9; n <= 20; ++n) f.net->send(0, n, probe(100 + n));
  f.sim.run();
  std::sort(received.begin(), received.end());
  ASSERT_EQ(received.size(), 10u);
  for (NodeId n = 10; n < 20; ++n) {
    EXPECT_EQ(received[static_cast<std::size_t>(n - 10)],
              std::make_pair(n, 100 + n));
  }
  EXPECT_EQ(f.net->stats().dropped_no_endpoint, 2u);  // nodes 9 and 20
}

TEST(Network, PerNodeEndpointInsideRangeOverridesOnlyThatNode) {
  Fixture f;
  std::vector<NodeId> by_range;
  std::vector<NodeId> by_node;
  f.net->register_endpoint_range(0, 8, [&](const Message& m) {
    by_range.push_back(m.dst);
  });
  f.net->register_endpoint(5, [&](const Message& m) {
    by_node.push_back(m.dst);
  });
  for (NodeId n = 0; n < 8; ++n) f.net->send(9, n, probe(n));
  f.sim.run();
  std::sort(by_range.begin(), by_range.end());
  EXPECT_EQ(by_range, (std::vector<NodeId>{0, 1, 2, 3, 4, 6, 7}));
  EXPECT_EQ(by_node, (std::vector<NodeId>{5}));
}

TEST(Network, RemoveEndpointInsideRangeDropsAsNoEndpoint) {
  Fixture f;
  std::vector<NodeId> received;
  f.net->register_endpoint_range(0, 4, [&](const Message& m) {
    received.push_back(m.dst);
  });
  f.net->remove_endpoint(2);
  DropReason reason = DropReason::kLoss;
  int drops = 0;
  f.net->set_drop_handler([&](const Message& m, DropReason r) {
    EXPECT_EQ(m.dst, 2);
    reason = r;
    ++drops;
  });
  for (NodeId n = 0; n < 4; ++n) f.net->send(9, n, probe(n));
  f.sim.run();
  std::sort(received.begin(), received.end());
  EXPECT_EQ(received, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(f.net->stats().dropped_no_endpoint, 1u);
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(reason, DropReason::kNoEndpoint);
}

TEST(Network, ReregisteringOneNodeKeepsHandlerTableBounded) {
  // Replaced handlers are recycled: 10^4 re-registrations of one node
  // (and of one range) leave only a couple of handler-table slots.
  Fixture f;
  int last = -1;
  for (int i = 0; i < 10000; ++i) {
    f.net->register_endpoint(3, [&last, i](const Message&) { last = i; });
    f.net->register_endpoint_range(100, 200, [](const Message&) {});
  }
  EXPECT_LE(f.net->handler_table_size(), 4u);
  f.net->send(0, 3, probe(0));
  f.sim.run();
  EXPECT_EQ(last, 9999);  // the newest registration wins
}

TEST(Network, PayloadBytesSentTracksWireSize) {
  Fixture f;
  f.net->register_endpoint(1, [](const Message&) {});
  f.net->send(0, 1, core::PowerPush{1.0, 1});
  std::uint64_t push_bytes = f.net->stats().payload_bytes_sent;
  EXPECT_EQ(push_bytes, payload_wire_bytes(Payload{core::PowerPush{}}));
  EXPECT_GT(push_bytes, 0u);
  f.net->send(0, 1, core::PowerGrant{1.0, 2, -1});
  EXPECT_EQ(f.net->stats().payload_bytes_sent,
            push_bytes + payload_wire_bytes(Payload{core::PowerGrant{}}));
  f.sim.run();
}

TEST(Network, DuplicationDeliversTwoCopiesOfOneSend) {
  NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  Fixture f(cfg);
  std::vector<Message> received;
  f.net->register_endpoint(1, [&](const Message& m) {
    received.push_back(m);
  });
  std::uint64_t id = f.net->send(0, 1, probe(7));
  f.sim.run();
  ASSERT_EQ(received.size(), 2u);
  // Both copies carry the same message id and payload; exactly one is
  // flagged as the injected duplicate.
  EXPECT_EQ(received[0].id, id);
  EXPECT_EQ(received[1].id, id);
  EXPECT_EQ(probe_value(received[0]), 7);
  EXPECT_EQ(probe_value(received[1]), 7);
  int marked = 0;
  for (const auto& m : received) marked += m.duplicate ? 1 : 0;
  EXPECT_EQ(marked, 1);
  EXPECT_EQ(f.net->stats().sent, 1u);        // logical sends
  EXPECT_EQ(f.net->stats().delivered, 2u);   // physical deliveries
  EXPECT_EQ(f.net->stats().duplicated, 1u);
  // The duplicated copy shares the original's payload: one logical send
  // means one payload's worth of accounted bytes.
  EXPECT_EQ(f.net->stats().payload_bytes_sent,
            payload_wire_bytes(Payload{core::PowerPush{}}));
}

TEST(Network, ReorderingInvertsArrivalOrder) {
  NetworkConfig cfg;
  cfg.reorder_probability = 0.5;
  cfg.reorder_delay = common::from_millis(5.0);
  Fixture f(cfg);
  std::vector<int> order;
  f.net->register_endpoint(1, [&](const Message& m) {
    order.push_back(probe_value(m));
  });
  // Space the sends 1 ms apart: far wider than latency jitter, so only
  // an injected reorder delay can invert arrival order.
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    f.sim.schedule_at(common::from_millis(static_cast<double>(i)),
                      [&f, i] { f.net->send(0, 1, probe(i)); });
  }
  f.sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  EXPECT_GT(f.net->stats().reordered, 0u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST(Network, ZeroFaultProbabilitiesInjectNothing) {
  Fixture f;  // duplicate/reorder default to 0
  std::vector<int> order;
  f.net->register_endpoint(1, [&](const Message& m) {
    order.push_back(probe_value(m));
  });
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    f.sim.schedule_at(common::from_millis(static_cast<double>(i)),
                      [&f, i] { f.net->send(0, 1, probe(i)); });
  }
  f.sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(f.net->stats().duplicated, 0u);
  EXPECT_EQ(f.net->stats().reordered, 0u);
}

TEST(Network, DuplicateDropHandlerFiresAtMostOnce) {
  // Both copies of a duplicated message drop (dead destination): the
  // drop handler must fire exactly once, or the cluster layer would
  // strand the same watts twice.
  NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  Fixture f(cfg);
  f.net->register_endpoint(1, [](const Message&) {});
  int drops = 0;
  f.net->set_drop_handler([&](const Message&, DropReason) { ++drops; });
  f.net->fail_node(1);
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(f.net->stats().dropped_dead_node, 2u);
}

TEST(Network, NoDropHandlerWhenOneCopyWasDelivered) {
  // One copy arrives, the other drops: the message was *delivered*, so
  // the drop handler must stay silent (stranding watts that actually
  // landed would double-count them).
  NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  Fixture f(cfg);
  int received = 0;
  f.net->register_endpoint(1, [&](const Message&) {
    ++received;
    f.net->fail_node(1);  // the sibling copy now drops on arrival
  });
  int drops = 0;
  f.net->set_drop_handler([&](const Message&, DropReason) { ++drops; });
  f.net->send(0, 1, probe(1));
  f.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.net->stats().dropped_dead_node, 1u);
  EXPECT_EQ(drops, 0);
}

TEST(Network, ReentrantSendFromHandlerIsSafe) {
  // A handler that sends while a delivery is being dispatched schedules
  // new delivery events, which may grow the event heap's storage. The
  // message the handler is reading lives in the fired event, which the
  // engine has already moved out of the heap, so that growth cannot
  // invalidate it.
  Fixture f;
  int pongs = 0;
  f.net->register_endpoint(0, [&](const Message&) { ++pongs; });
  f.net->register_endpoint(1, [&](const Message& m) {
    // Fan out replies to force event-heap growth mid-delivery.
    const int value = probe_value(m);
    for (int i = 0; i < 8; ++i) f.net->send(1, 0, probe(i));
    EXPECT_EQ(probe_value(m), value);  // still intact after the sends
  });
  for (int i = 0; i < 16; ++i) f.net->send(0, 1, probe(i));
  f.sim.run();
  EXPECT_EQ(pongs, 16 * 8);
  EXPECT_EQ(f.net->stats().delivered,
            static_cast<std::uint64_t>(16 + 16 * 8));
}

TEST(Network, StatsTotalsAreConsistent) {
  NetworkConfig cfg;
  cfg.loss_probability = 0.5;
  Fixture f(cfg);
  f.net->register_endpoint(1, [](const Message&) {});
  for (int i = 0; i < 1000; ++i) f.net->send(0, 1, probe(i));
  f.sim.run();
  const auto& s = f.net->stats();
  EXPECT_EQ(s.sent, 1000u);
  EXPECT_EQ(s.delivered + s.dropped_total(), 1000u);
}

}  // namespace
}  // namespace penelope::net
