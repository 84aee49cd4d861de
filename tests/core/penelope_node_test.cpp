// The node core driven directly by a fake driver: no simulator, no
// threads. Every input is one call; every effect lands in one ordered
// log, so these tests pin the protocol *and* the order of its effects.
#include "core/node.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace penelope::core {
namespace {

using telemetry::TxnEventKind;

class FakePower final : public power::PowerInterface {
 public:
  void set_cap(double watts) override { cap_ = range_.clamp(watts); }
  double cap() const override { return cap_; }
  double read_average_power(common::Ticks) override { return 0.0; }
  double instantaneous_power(common::Ticks) override { return 0.0; }
  const power::SafeRange& safe_range() const override { return range_; }

 private:
  power::SafeRange range_{.min_watts = 40.0, .max_watts = 250.0};
  double cap_ = 0.0;
};

/// Logs every effect in order: sends and timer calls by name, events by
/// their journal name.
class FakeDriver final : public NodeDriver {
 public:
  bool send_request(std::int32_t, const PowerRequest& request) override {
    log.push_back("send_request");
    requests.push_back(request);
    return !refuse_requests;
  }
  bool send_grant(std::int32_t, const PowerGrant& grant) override {
    log.push_back("send_grant");
    grants.push_back(grant);
    return !refuse_grants;
  }
  void send_push(std::int32_t, const PowerPush& push) override {
    log.push_back("send_push");
    pushes.push_back(push);
  }
  void arm_timeout() override { log.push_back("arm_timeout"); }
  void cancel_timeout() override { log.push_back("cancel_timeout"); }
  std::int32_t draw_peer() override { return 1; }
  void on_event(const ProtocolEvent& event) override {
    log.push_back(telemetry::txn_event_name(event.kind));
    events.push_back(event);
  }

  std::size_t count(TxnEventKind kind) const {
    std::size_t n = 0;
    for (const ProtocolEvent& e : events) n += e.kind == kind ? 1 : 0;
    return n;
  }
  const ProtocolEvent& last(TxnEventKind kind) const {
    for (auto it = events.rbegin(); it != events.rend(); ++it)
      if (it->kind == kind) return *it;
    ADD_FAILURE() << "no " << telemetry::txn_event_name(kind);
    return events.front();
  }

  std::vector<std::string> log;
  std::vector<ProtocolEvent> events;
  std::vector<PowerRequest> requests;
  std::vector<PowerGrant> grants;
  std::vector<PowerPush> pushes;
  bool refuse_requests = false;
  bool refuse_grants = false;
};

PenelopeConfig test_config() {
  PenelopeConfig config;
  config.decider.initial_cap_watts = 160.0;
  config.decider.epsilon_watts = 5.0;
  config.decider.safe_range = {.min_watts = 40.0, .max_watts = 250.0};
  config.decider.txn_node = 0;
  config.period = 1000;
  return config;
}

struct Harness {
  explicit Harness(PenelopeConfig config = test_config())
      : node(config, power, driver) {}

  /// A hungry tick with an empty pool: the node asks a peer. Returns
  /// the request's txn id.
  std::uint64_t request_power(common::Ticks now, double avg_power = 200.0) {
    node.tick(now, avg_power);
    EXPECT_TRUE(node.awaiting_grant());
    return driver.requests.back().txn_id;
  }

  FakePower power;
  FakeDriver driver;
  PenelopeNode node;
};

TEST(PenelopeNode, InitialCapIsPushedThroughThePowerInterface) {
  Harness h;
  EXPECT_DOUBLE_EQ(h.power.cap(), 160.0);
  EXPECT_TRUE(h.driver.log.empty());
}

TEST(PenelopeNode, DuplicateGrantRequestAndPushAreEachDroppedOnce) {
  Harness h;
  // Request side: the second copy must not debit the pool again.
  h.node.on_push(10, 2, PowerPush{50.0, make_txn_id(2, 1, 1)});
  const PowerRequest request{false, 0.0, make_txn_id(3, 0, 1)};
  h.node.on_request(20, 3, request);
  h.node.on_request(21, 3, request);
  EXPECT_EQ(h.driver.grants.size(), 1u);
  // Push: deposited once.
  h.node.on_push(22, 2, PowerPush{50.0, make_txn_id(2, 1, 1)});
  EXPECT_NEAR(h.node.pool().available(), 50.0 - h.driver.grants[0].watts,
              1e-12);
  // Grant: applied once.
  h.node.pool().drain();
  const std::uint64_t txn = h.request_power(1000);
  h.node.on_grant(1010, 1, PowerGrant{10.0, txn});
  h.node.on_grant(1011, 1, PowerGrant{10.0, txn});
  EXPECT_DOUBLE_EQ(h.node.cap(), 170.0);
  EXPECT_EQ(h.driver.count(TxnEventKind::kDuplicateDropped), 3u);
  EXPECT_EQ(h.driver.count(TxnEventKind::kRequestServed), 1u);
  EXPECT_EQ(h.driver.count(TxnEventKind::kPushReceived), 1u);
  EXPECT_EQ(h.driver.count(TxnEventKind::kGrantReceived), 1u);
}

TEST(PenelopeNode, MatchedGrantSplitsAtTheSafeCeiling) {
  PenelopeConfig config = test_config();
  config.decider.initial_cap_watts = 240.0;
  Harness h(config);
  const std::uint64_t txn = h.request_power(1000, /*avg_power=*/245.0);
  h.node.on_grant(1050, 1, PowerGrant{30.0, txn});

  EXPECT_DOUBLE_EQ(h.node.cap(), 250.0);
  EXPECT_DOUBLE_EQ(h.power.cap(), 250.0);
  EXPECT_NEAR(h.node.pool().available(), 20.0, 1e-12);
  const ProtocolEvent& received = h.driver.last(TxnEventKind::kGrantReceived);
  EXPECT_EQ(received.sent_at, 1000);
  EXPECT_DOUBLE_EQ(received.landed, 30.0);
  EXPECT_NEAR(h.driver.last(TxnEventKind::kApplied).watts, 10.0, 1e-12);
  EXPECT_NEAR(h.driver.last(TxnEventKind::kBanked).watts, 20.0, 1e-12);
  EXPECT_EQ(h.driver.last(TxnEventKind::kBanked).txn, txn);
  EXPECT_FALSE(h.node.awaiting_grant());
  // The answered request's timer is cancelled before anything else.
  EXPECT_EQ(h.driver.log[h.driver.log.size() - 4], "cancel_timeout");
}

TEST(PenelopeNode, LateAndUnknownGrantsAreBanked) {
  Harness h;
  const std::uint64_t txn = h.request_power(1000);
  h.node.on_timeout(2000);
  EXPECT_EQ(h.node.stale_entries(), 1u);

  h.node.on_grant(2500, 1, PowerGrant{12.0, txn});
  const ProtocolEvent& late = h.driver.last(TxnEventKind::kLateGrant);
  EXPECT_EQ(late.sent_at, 1000);
  EXPECT_DOUBLE_EQ(late.landed, 12.0);
  EXPECT_NEAR(h.node.pool().available(), 12.0, 1e-12);
  EXPECT_EQ(h.node.stale_entries(), 0u);
  EXPECT_EQ(h.driver.count(TxnEventKind::kUnknownTxn), 0u);

  h.node.on_grant(2600, 1, PowerGrant{3.0, make_txn_id(0, 0, 999)});
  EXPECT_EQ(h.driver.count(TxnEventKind::kUnknownTxn), 1u);
  EXPECT_EQ(h.driver.last(TxnEventKind::kLateGrant).sent_at,
            ProtocolEvent::kNoSendTime);
  EXPECT_NEAR(h.node.pool().available(), 15.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.node.cap(), 160.0);  // banked, never applied
}

TEST(PenelopeNode, PlantedBugSkipsTheLateGrantLanding) {
  PenelopeConfig config = test_config();
  config.test_revert_grant_fix = true;
  Harness h(config);
  const std::uint64_t txn = h.request_power(1000);
  h.node.on_timeout(2000);
  h.node.on_grant(2500, 1, PowerGrant{12.0, txn});
  h.node.on_grant(2501, 1, PowerGrant{12.0, txn});  // no window: banks again
  EXPECT_EQ(h.driver.count(TxnEventKind::kDuplicateDropped), 0u);
  EXPECT_DOUBLE_EQ(h.driver.last(TxnEventKind::kLateGrant).landed, 0.0);
  EXPECT_NEAR(h.node.pool().available(), 24.0, 1e-12);
}

TEST(PenelopeNode, TimeoutResolvesWithNothingAndStillRunsLocalUrgency) {
  Harness h;
  // Raise the cap above the initial assignment, then serve an urgent
  // request: the pool latches localUrgency.
  std::uint64_t txn = h.request_power(1000);
  h.node.on_grant(1010, 1, PowerGrant{30.0, txn});
  ASSERT_DOUBLE_EQ(h.node.cap(), 190.0);
  h.node.on_request(1500, 2, PowerRequest{true, 20.0, make_txn_id(2, 0, 1)});

  txn = h.request_power(2000, /*avg_power=*/200.0);
  h.driver.log.clear();
  h.node.on_timeout(3000);
  // The step resolved with 0 W, then localUrgency released everything
  // above the initial cap into the pool.
  EXPECT_DOUBLE_EQ(h.node.cap(), 160.0);
  EXPECT_DOUBLE_EQ(h.power.cap(), 160.0);
  EXPECT_NEAR(h.node.pool().available(), 30.0, 1e-12);
  EXPECT_EQ(h.driver.log, (std::vector<std::string>{
                              "timeout", "cancel_timeout", "banked"}));
  EXPECT_EQ(h.driver.last(TxnEventKind::kBanked).txn, kNoTxn);  // local
  EXPECT_EQ(h.driver.last(TxnEventKind::kTimeout).txn, txn);
  EXPECT_FALSE(h.node.awaiting_grant());
  // A second firing is a no-op.
  h.node.on_timeout(3001);
  EXPECT_EQ(h.driver.count(TxnEventKind::kTimeout), 1u);
}

TEST(PenelopeNode, CrashSeizesPoolAndCapAndRestartDepositsLeftover) {
  Harness h;
  const PowerPush push{10.0, make_txn_id(2, 1, 1)};
  const PowerRequest request{false, 0.0, make_txn_id(3, 0, 1)};
  h.request_power(5);
  h.node.on_push(10, 2, push);
  h.node.on_request(20, 3, request);  // serves 1 W (10% of 10 W)
  h.driver.log.clear();

  const double pool_before = h.node.pool().available();
  const double residue = h.node.crash();
  EXPECT_NEAR(residue, pool_before + (160.0 - 40.0), 1e-12);
  EXPECT_DOUBLE_EQ(h.node.cap(), 40.0);
  EXPECT_DOUBLE_EQ(h.power.cap(), 40.0);
  EXPECT_DOUBLE_EQ(h.node.pool().available(), 0.0);
  EXPECT_FALSE(h.node.alive());
  EXPECT_FALSE(h.node.awaiting_grant());
  EXPECT_EQ(h.driver.log, std::vector<std::string>{"cancel_timeout"});

  h.node.restart(7.0);
  EXPECT_TRUE(h.node.alive());
  EXPECT_NEAR(h.node.pool().available(), 7.0, 1e-12);
  // Both windows died with the crash: the same push and request are
  // first sightings again.
  h.node.on_push(30, 2, push);
  h.node.on_request(40, 3, request);
  EXPECT_EQ(h.driver.count(TxnEventKind::kDuplicateDropped), 0u);
  EXPECT_EQ(h.driver.count(TxnEventKind::kPushReceived), 2u);
  EXPECT_EQ(h.driver.count(TxnEventKind::kRequestServed), 2u);
}

TEST(PenelopeNode, DownNodeStrandsArrivalsAndDropsRequestsUnseen) {
  Harness h;
  const std::uint64_t txn = h.request_power(1000);
  h.node.kill();
  h.driver.log.clear();

  h.node.on_grant(1010, 1, PowerGrant{5.0, txn});
  h.node.on_push(1020, 2, PowerPush{6.0, make_txn_id(2, 1, 1)});
  const PowerRequest request{false, 0.0, make_txn_id(3, 0, 1)};
  h.node.on_request(1030, 3, request);
  h.node.tick(2000, 200.0);
  h.node.on_timeout(2001);
  EXPECT_EQ(h.driver.log,
            (std::vector<std::string>{"stranded", "stranded"}));
  EXPECT_DOUBLE_EQ(h.node.pool().available(), 0.0);
  EXPECT_DOUBLE_EQ(h.node.cap(), 160.0);  // frozen

  // The dropped request never entered the window: once the node is back
  // it gets a real answer.
  h.node.restart(0.0);
  h.node.on_request(3000, 3, request);
  EXPECT_EQ(h.driver.count(TxnEventKind::kRequestServed), 1u);
  EXPECT_EQ(h.driver.count(TxnEventKind::kDuplicateDropped), 0u);
}

TEST(PenelopeNode, RefusedGrantIsBankedBack) {
  Harness h;
  h.node.on_push(10, 2, PowerPush{50.0, make_txn_id(2, 1, 1)});
  h.driver.refuse_grants = true;
  h.node.on_request(20, 3, PowerRequest{true, 20.0, make_txn_id(3, 0, 1)});
  EXPECT_NEAR(h.node.pool().available(), 50.0, 1e-12);
  const ProtocolEvent& banked = h.driver.last(TxnEventKind::kBanked);
  EXPECT_DOUBLE_EQ(banked.watts, 20.0);
  EXPECT_DOUBLE_EQ(banked.landed, 20.0);
}

TEST(PenelopeNode, RefusedRequestTimesOutAtOnce) {
  Harness h;
  h.driver.refuse_requests = true;
  h.node.tick(1000, 200.0);
  // No timer is armed for a request that never left; the step resolves
  // on the spot, exactly as if its timer had fired.
  EXPECT_EQ(h.driver.log,
            (std::vector<std::string>{"request_sent", "send_request",
                                      "timeout", "cancel_timeout"}));
  EXPECT_FALSE(h.node.awaiting_grant());
  EXPECT_EQ(h.driver.last(TxnEventKind::kTimeout).txn,
            h.driver.requests.back().txn_id);
  EXPECT_DOUBLE_EQ(h.node.cap(), 160.0);
}

TEST(PenelopeNode, TickPushesTheTimeoutResidueBeforeTheNewRequest) {
  PenelopeConfig config = test_config();
  config.push_gossip = true;
  config.push_threshold_watts = 20.0;
  config.push_fraction = 1.0;
  Harness h(config);
  const std::uint64_t first = h.request_power(1000);
  h.node.on_push(1500, 2, PowerPush{40.0, make_txn_id(2, 1, 1)});
  h.driver.log.clear();

  // The previous period's request times out first; its step finishes by
  // pushing the pool away, and only then does the new step ask a peer.
  h.node.tick(2000, 200.0);
  EXPECT_EQ(h.driver.log,
            (std::vector<std::string>{"timeout", "cancel_timeout",
                                      "push_sent", "send_push",
                                      "request_sent", "send_request",
                                      "arm_timeout"}));
  EXPECT_EQ(h.driver.last(TxnEventKind::kTimeout).txn, first);
  EXPECT_EQ(h.driver.pushes.back().txn_id, make_txn_id(0, 1, 1));
  EXPECT_NE(h.node.outstanding_txn(), first);
}

}  // namespace
}  // namespace penelope::core
