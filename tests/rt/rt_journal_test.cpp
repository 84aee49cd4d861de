// The rt runtimes journal through the same node core as the simulator,
// so an rt flight journal speaks the sim's vocabulary: a matched grant
// is split into kApplied/kBanked records, late grants are kLateGrant,
// and the DST oracles can read it.
#include <gtest/gtest.h>

#include <map>

#include "dst/oracles.hpp"
#include "rt/thread_cluster.hpp"

namespace penelope::rt {
namespace {

std::vector<telemetry::TxnRecord> traded_journal() {
  ThreadClusterConfig cfg;
  cfg.n_nodes = 4;
  cfg.initial_cap_watts = 120.0;
  cfg.period = common::from_millis(10);
  cfg.request_timeout = common::from_millis(10);
  cfg.flight_recorder_capacity = 1 << 16;
  cfg.seed = 91;
  std::vector<std::vector<DemandPhase>> scripts;
  for (int i = 0; i < cfg.n_nodes; ++i) {
    // Hungry nodes demand past the safe ceiling, so some grants overflow
    // the cap and are banked rather than applied.
    double demand = i < cfg.n_nodes / 2 ? 60.0 : 260.0;
    scripts.push_back({DemandPhase{demand, common::from_seconds(60.0)}});
  }
  ThreadCluster cluster(cfg, std::move(scripts));
  cluster.run_for(common::from_millis(800));
  EXPECT_EQ(cluster.flight_recorder().dropped(), 0u);
  return cluster.flight_recorder().snapshot();
}

TEST(RtJournal, MatchedGrantsSplitIntoAppliedAndBanked) {
  const std::vector<telemetry::TxnRecord> journal = traded_journal();
  std::map<std::uint64_t, double> received;
  std::map<std::uint64_t, double> settled;
  for (const telemetry::TxnRecord& r : journal) {
    if (r.kind == telemetry::TxnEventKind::kGrantReceived && r.watts > 0.0)
      received[r.txn_id] = r.watts;
  }
  ASSERT_FALSE(received.empty());
  for (const telemetry::TxnRecord& r : journal) {
    if ((r.kind == telemetry::TxnEventKind::kApplied ||
         r.kind == telemetry::TxnEventKind::kBanked) &&
        received.contains(r.txn_id)) {
      settled[r.txn_id] += r.watts;
    }
  }
  for (const auto& [txn, watts] : received) {
    EXPECT_NEAR(settled[txn], watts, 1e-6) << "txn " << txn;
  }
}

TEST(RtJournal, AtMostOnceOracleReadsTheRtJournal) {
  dst::OracleFacts facts;
  facts.journal = traded_journal();
  const std::vector<dst::Violation> violations = dst::check_oracles(facts);
  EXPECT_FALSE(dst::has_oracle(violations, "at-most-once"));
}

}  // namespace
}  // namespace penelope::rt
