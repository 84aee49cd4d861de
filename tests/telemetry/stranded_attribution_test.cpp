// The flight recorder's reason to exist: after a chaotic run, every
// stranded watt in the aggregate ledger must be attributable to a
// specific recorded transaction — who minted it, which hop lost it, how
// many watts — and the journal must export to Perfetto-loadable JSON.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/protocol.hpp"
#include "json_mini.hpp"
#include "telemetry/export.hpp"

namespace penelope::cluster {
namespace {

ClusterConfig lossy_config() {
  ClusterConfig cc;
  cc.manager = ManagerKind::kPenelope;
  cc.n_nodes = 12;
  cc.per_socket_cap_watts = 70.0;
  cc.seed = 5;
  cc.max_seconds = 2500.0;
  cc.network.loss_probability = 0.08;
  cc.network.duplicate_probability = 0.05;
  cc.push_gossip = true;  // pushes can strand too; they must be journaled
  cc.audit_interval = common::from_seconds(1.0);
  // Big enough that nothing wraps: attribution needs the whole journal.
  cc.flight_recorder_capacity = 1u << 20;
  cc.trace_interval = common::from_seconds(5.0);
  return cc;
}

workload::NpbConfig npb_config(std::uint64_t seed) {
  workload::NpbConfig cfg;
  cfg.duration_scale = 0.5;
  cfg.demand_jitter_frac = 0.03;
  cfg.seed = seed;
  return cfg;
}

TEST(StrandedAttribution, EveryStrandedWattHasARecordedTransaction) {
  ClusterConfig cc = lossy_config();
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, npb_config(cc.seed)));
  RunResult result = cluster.run();
  EXPECT_TRUE(result.all_completed);
  // A lossy fabric must actually strand power or this test tests nothing.
  ASSERT_GT(result.stranded_watts, 0.0);

  const telemetry::FlightRecorder& recorder = cluster.metrics().recorder();
  EXPECT_EQ(recorder.dropped(), 0u) << "ring wrapped; attribution is lossy";

  double journaled_stranded = 0.0;
  for (const telemetry::TxnRecord& record : recorder.snapshot()) {
    if (record.kind != telemetry::TxnEventKind::kStranded) continue;
    // Attribution: a stranded event names its transaction and victim.
    EXPECT_NE(record.txn_id, core::kNoTxn);
    EXPECT_GE(record.node, 0);
    EXPECT_GT(record.watts, 0.0);
    journaled_stranded += record.watts;
    // The minting node is recoverable from the txn id itself.
    EXPECT_GE(core::txn_node(record.txn_id), 0);
    EXPECT_LT(core::txn_node(record.txn_id), cc.n_nodes);
  }
  // The journal and the aggregate ledger agree to float noise: every
  // stranded watt is accounted for by a specific transaction.
  EXPECT_NEAR(journaled_stranded, result.stranded_watts,
              1e-6 * std::max(1.0, result.stranded_watts));
  EXPECT_NEAR(journaled_stranded, cluster.metrics().stranded_watts(),
              1e-6 * std::max(1.0, journaled_stranded));
}

TEST(StrandedAttribution,
     ReclaimedWattsAreAttributableToNodeAndIncarnation) {
  // Under churn the stranded ledger is no longer monotone: dead nodes'
  // watts flow back out through reclamation. The journal must still
  // balance exactly — every stranded watt is a kStranded record, every
  // reclaimed watt a kReclaimed record naming (node, incarnation) in
  // its membership-stream txn id, and the difference is what the
  // aggregate ledger holds at the end.
  ClusterConfig cc = lossy_config();
  cc.seed = 21;
  cc.membership_enabled = true;
  cc.churn_enabled = true;
  cc.churn_mtbf_seconds = 40.0;
  cc.churn_mttr_seconds = 4.0;
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, npb_config(cc.seed)));
  RunResult result = cluster.run();
  EXPECT_TRUE(result.all_completed);
  // Churn must actually reclaim or this test tests nothing.
  ASSERT_GT(result.reclaims, 0u);
  ASSERT_GT(result.watts_reclaimed, 0.0);

  const telemetry::FlightRecorder& recorder = cluster.metrics().recorder();
  ASSERT_EQ(recorder.dropped(), 0u) << "ring wrapped; attribution is lossy";

  double journaled_stranded = 0.0;
  double journaled_reclaimed = 0.0;
  for (const telemetry::TxnRecord& record : recorder.snapshot()) {
    if (record.kind == telemetry::TxnEventKind::kStranded) {
      journaled_stranded += record.watts;
    } else if (record.kind == telemetry::TxnEventKind::kReclaimed) {
      EXPECT_GT(record.watts, 0.0);
      journaled_reclaimed += record.watts;
      // Attribution: the id is on the membership stream and decodes to
      // the dead node and the incarnation whose watts these were.
      EXPECT_EQ(core::txn_stream(record.txn_id), 2u);
      EXPECT_GE(core::txn_node(record.txn_id), 0);
      EXPECT_LT(core::txn_node(record.txn_id), cc.n_nodes);
      EXPECT_GE(core::txn_seq(record.txn_id), 1u);
    }
  }
  double tolerance = 1e-6 * std::max(1.0, journaled_stranded);
  // Journal vs counters: reclaimed watts agree...
  EXPECT_NEAR(journaled_reclaimed, result.watts_reclaimed, tolerance);
  // ...and stranded-minus-reclaimed is exactly the final ledger.
  EXPECT_NEAR(journaled_stranded - journaled_reclaimed,
              result.stranded_watts, tolerance);
  EXPECT_NEAR(journaled_stranded - journaled_reclaimed,
              cluster.metrics().stranded_watts(), tolerance);
}

/// Order-sensitive FNV-1a over every field of every journal record, so
/// a reordered, added, or re-valued record changes the hash.
std::uint64_t journal_hash(const std::vector<telemetry::TxnRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const telemetry::TxnRecord& r : records) {
    mix(static_cast<std::uint64_t>(r.at));
    mix(r.txn_id);
    mix(static_cast<std::uint64_t>(r.kind));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.node)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.peer)));
    mix(std::bit_cast<std::uint64_t>(r.watts));
  }
  return h;
}

TEST(StrandedAttribution, LossyRunTelemetryIsPinned) {
  // The golden trace hash sees only simulator events; this pins what the
  // protocol handlers write into the telemetry layer on the same lossy
  // run: the journal (per-kind tallies and an order-sensitive hash of
  // every record) and the ClusterMetrics ledger totals. A refactor of
  // the node protocol must reproduce every one of them exactly.
  ClusterConfig cc = lossy_config();
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, npb_config(cc.seed)));
  cluster.run();
  const ClusterMetrics& m = cluster.metrics();
  const std::vector<telemetry::TxnRecord> records = m.recorder().snapshot();
  ASSERT_EQ(m.recorder().dropped(), 0u);

  constexpr std::size_t kKinds =
      static_cast<std::size_t>(telemetry::TxnEventKind::kReclaimed) + 1;
  std::array<std::uint64_t, kKinds> tally{};
  for (const telemetry::TxnRecord& r : records)
    ++tally[static_cast<std::size_t>(r.kind)];
  using K = telemetry::TxnEventKind;
  auto count = [&tally](K kind) {
    return tally[static_cast<std::size_t>(kind)];
  };
  EXPECT_EQ(count(K::kRequestSent), 548u);
  EXPECT_EQ(count(K::kRequestServed), 511u);
  EXPECT_EQ(count(K::kGrantReceived), 472u);
  EXPECT_EQ(count(K::kLateGrant), 0u);
  EXPECT_EQ(count(K::kTimeout), 76u);
  EXPECT_EQ(count(K::kApplied), 130u);
  EXPECT_EQ(count(K::kBanked), 0u);
  EXPECT_EQ(count(K::kStranded), 23u);
  EXPECT_EQ(count(K::kDuplicateDropped), 59u);
  EXPECT_EQ(count(K::kUnknownTxn), 0u);
  EXPECT_EQ(count(K::kPushSent), 175u);
  EXPECT_EQ(count(K::kPushReceived), 161u);
  for (K kind : {K::kDonationSent, K::kDonationReceived, K::kPeerSuspected,
                 K::kPeerDeclaredDead, K::kFalseSuspicion, K::kPeerRejoined,
                 K::kReclaimed})
    EXPECT_EQ(count(kind), 0u) << telemetry::txn_event_name(kind);
  EXPECT_EQ(journal_hash(records), 0x14fb7129abcdde4cULL);

  EXPECT_EQ(m.requests_sent(), 548u);
  EXPECT_EQ(m.timeouts(), 76u);
  EXPECT_EQ(m.duplicates_dropped(), 59u);
  EXPECT_EQ(m.unknown_txn_grants(), 0u);
  EXPECT_EQ(m.turnaround_ms().size(), 472u);
  // Ledger sums are pinned bit for bit: the same additions in the same
  // order give the same doubles.
  EXPECT_EQ(m.stranded_watts(), 0x1.6759f1b65bff1p+7);
  EXPECT_EQ(m.in_flight_watts(), 0.0);
}

TEST(StrandedAttribution, ChaosJournalExportsPerfettoLoadableJson) {
  ClusterConfig cc = lossy_config();
  Cluster cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, npb_config(9)));
  RunResult result = cluster.run();
  EXPECT_TRUE(result.all_completed);

  const telemetry::FlightRecorder& recorder = cluster.metrics().recorder();
  ASSERT_GT(recorder.recorded(), 0u);
  std::string json = telemetry::to_perfetto_json(
      recorder.snapshot(), cluster.trace().counter_tracks());

  bool ok = false;
  testjson::Value root = testjson::parse_json(json, &ok);
  ASSERT_TRUE(ok) << "perfetto export is not valid JSON";
  ASSERT_TRUE(root.at("traceEvents").is_array());

  int spans = 0;
  int stranded_instants = 0;
  int counter_events = 0;
  for (const auto& event : root.at("traceEvents").array) {
    ASSERT_TRUE(event.is_object());
    const std::string& ph = event.at("ph").string;
    if (ph == "X") {
      ++spans;
      EXPECT_TRUE(event.at("args").at("hops").is_array());
      EXPECT_GE(event.at("args").at("hops").array.size(), 2u);
      EXPECT_GE(event.at("dur").number, 0.0);
    } else if (ph == "i") {
      if (event.at("name").string == "stranded") ++stranded_instants;
    } else if (ph == "C") {
      ++counter_events;
    }
  }
  // A lossy run produces spans, visible strand markers, and cap/pool
  // counter tracks from the trajectory trace.
  EXPECT_GT(spans, 0);
  EXPECT_GT(stranded_instants, 0);
  EXPECT_GT(counter_events, 0);

  // And the same run's metrics render as Prometheus text (smoke: the
  // dedicated round-trip tests live in export_test.cpp).
  std::string text = telemetry::to_prometheus_text(
      cluster.metrics().registry().snapshot());
  EXPECT_NE(text.find("penelope_stranded_watts"), std::string::npos);
  EXPECT_NE(text.find("# TYPE penelope_turnaround_ms histogram"),
            std::string::npos);
}

}  // namespace
}  // namespace penelope::cluster
