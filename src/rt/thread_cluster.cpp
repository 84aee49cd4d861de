#include "rt/thread_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace penelope::rt {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

}  // namespace

common::Ticks wall_ticks() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - process_epoch())
      .count();
}

Clock::time_point to_time_point(common::Ticks ticks) {
  return process_epoch() + std::chrono::microseconds(ticks);
}

void RtNodeTelemetry::register_counters(telemetry::MetricsRegistry& registry,
                                        const std::string& prefix, int id,
                                        telemetry::FlightRecorder& journal) {
  telemetry::Labels labels{{"node", std::to_string(id)}};
  node = id;
  recorder = &journal;
  grants_applied = registry.counter(prefix + "_grants_applied_total", labels,
                                    "peer grants applied by the decider");
  timeouts = registry.counter(prefix + "_timeouts_total", labels,
                              "requests resolved by timeout");
  duplicates_dropped =
      registry.counter(prefix + "_duplicates_dropped_total", labels,
                       "redeliveries rejected by a receive window");
}

void RtNodeTelemetry::record(const core::ProtocolEvent& event) {
  using telemetry::TxnEventKind;
  switch (event.kind) {
    case TxnEventKind::kRequestSent: requests_sent.inc(); break;
    case TxnEventKind::kGrantReceived: grants_applied.inc(); break;
    case TxnEventKind::kTimeout: timeouts.inc(); break;
    case TxnEventKind::kDuplicateDropped: duplicates_dropped.inc(); break;
    default: break;
  }
  if (recorder != nullptr) core::journal_event(*recorder, node, event);
}

namespace {

power::SimulatedRaplConfig rapl_config(const RtNodeConfig& config,
                                       const std::vector<DemandPhase>& script,
                                       std::uint64_t seed) {
  power::SimulatedRaplConfig rc;
  rc.safe_range = config.safe_range;
  rc.tau_seconds = config.rapl_tau_seconds;
  rc.idle_watts = config.idle_watts;
  rc.initial_cap_watts = config.initial_cap_watts;
  rc.initial_demand_watts =
      script.empty() ? config.idle_watts : script.front().demand_watts;
  rc.seed = seed;
  return rc;
}

core::PenelopeConfig core_config(const RtNodeConfig& config, int id) {
  core::PenelopeConfig pc;
  pc.decider.initial_cap_watts = config.initial_cap_watts;
  pc.decider.epsilon_watts = config.epsilon_watts;
  pc.decider.safe_range = config.safe_range;
  pc.decider.txn_node = id;
  pc.pool = config.pool;
  pc.period = config.period;
  return pc;
}

}  // namespace

RtNode::RtNode(const RtNodeConfig& config, int id,
               std::vector<DemandPhase> script, std::uint64_t rapl_seed)
    : request_timeout_(config.request_timeout),
      script_(std::move(script)),
      rapl_(rapl_config(config, script_, rapl_seed)),
      core_(core_config(config, id), rapl_, *this) {}

void RtNode::start_script(common::Ticks now) {
  if (!script_.empty()) rapl_.set_demand(script_.front().demand_watts, now);
  phase_start_ = now;
}

void RtNode::decide(common::Ticks now) {
  while (phase_ + 1 < script_.size() &&
         now - phase_start_ >= script_[phase_].duration) {
    phase_start_ += script_[phase_].duration;
    ++phase_;
    rapl_.set_demand(script_[phase_].demand_watts, now);
  }
  core_.tick(now, rapl_.read_average_power(now));
  // The blocking grant wait: replies from earlier, timed-out rounds are
  // banked by the core on the way.
  while (core_.awaiting_grant()) {
    std::optional<GrantMsg> msg = grant_box_.pop_until(deadline_);
    if (!msg) {  // deadline passed or mailbox closed
      core_.on_timeout(wall_ticks());
      return;
    }
    core_.on_grant(wall_ticks(), msg->from, msg->grant);
  }
}

void RtNode::arm_timeout() {
  deadline_ = Clock::now() + std::chrono::microseconds(request_timeout_);
}

/// A request in flight between threads; the pool replies into the
/// requester's grant box.
struct PoolRequestMsg {
  core::PowerRequest request;
  int from = -1;
};

/// One node: the shared rt node plus this driver's mailbox transport and
/// crash plan. The pool thread runs the core's request side; everything
/// else runs on the decider thread, and on run_for's thread after the
/// joins.
struct ThreadCluster::Node final : RtNode {
  Node(ThreadCluster& cluster, int node_id,
       std::vector<DemandPhase> demand_script)
      : RtNode(cluster.config_, node_id, std::move(demand_script),
               cluster.config_.seed ^ (0x100001b3ULL * (node_id + 1))),
        owner(cluster),
        id(node_id),
        rng(cluster.config_.seed ^ (0xc6a4a793ULL * (node_id + 1))) {}

  bool send_request(std::int32_t peer,
                    const core::PowerRequest& request) override {
    return owner.nodes_[static_cast<std::size_t>(peer)]->inbox.try_push(
        PoolRequestMsg{request, id});
  }
  bool send_grant(std::int32_t peer, const core::PowerGrant& grant) override {
    // Refused when the requester is gone (shutdown) or its box is full;
    // the core then banks the watts rather than strand them.
    return owner.nodes_[static_cast<std::size_t>(peer)]->grant_box().try_push(
        GrantMsg{id, grant});
  }
  void send_push(std::int32_t, const core::PowerPush&) override {
    PEN_CHECK_MSG(false, "push gossip is not wired into ThreadCluster");
  }
  std::int32_t draw_peer() override {
    auto peer = static_cast<int>(rng.next_below(
        static_cast<std::uint32_t>(owner.config_.n_nodes - 1)));
    return peer >= id ? peer + 1 : peer;
  }

  ThreadCluster& owner;
  int id;
  Mailbox<PoolRequestMsg> inbox;
  common::Rng rng;
  std::atomic<std::uint32_t> incarnation{1};
  /// Watts seized by the last crash (cap share above the safe floor,
  /// drained pool, grants that arrive while down). Written by the
  /// decider thread; read by the main thread after the joins.
  std::atomic<double> orphaned{0.0};
  /// This node's slice of config.crash_events, sorted by time:
  /// (crash_at, restart_at) wall offsets. Decider-thread private.
  std::vector<std::pair<common::Ticks, common::Ticks>> crash_plan;
  telemetry::Counter crashes;
  telemetry::Counter restarts;
  std::jthread pool_thread;
  std::jthread decider_thread;
};

ThreadCluster::ThreadCluster(
    ThreadClusterConfig config,
    std::vector<std::vector<DemandPhase>> demand_scripts)
    : config_(config) {
  PEN_CHECK(config_.n_nodes >= 2);
  PEN_CHECK_MSG(
      demand_scripts.size() == static_cast<std::size_t>(config_.n_nodes),
      "need one demand script per node");
  if (config_.flight_recorder_capacity > 0)
    recorder_.enable(config_.flight_recorder_capacity);
  for (int i = 0; i < config_.n_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(
        *this, i, std::move(demand_scripts[static_cast<std::size_t>(i)])));
    Node& node = *nodes_.back();
    telemetry::Labels labels{{"node", std::to_string(i)}};
    node.observer.register_counters(registry_, "rt", i, recorder_);
    node.observer.requests_sent = registry_.counter(
        "rt_requests_sent_total", labels, "power requests sent to peers");
    node.crashes = registry_.counter("rt_crashes_total", labels,
                                     "scripted node crashes executed");
    node.restarts = registry_.counter(
        "rt_restarts_total", labels,
        "crash recoveries (incarnation bumps)");
    for (const ThreadCrashEvent& ev : config_.crash_events) {
      if (ev.node == i) {
        PEN_CHECK(ev.down_for > 0);
        node.crash_plan.emplace_back(ev.at, ev.at + ev.down_for);
      }
    }
    std::sort(node.crash_plan.begin(), node.crash_plan.end());
  }
}

ThreadCluster::~ThreadCluster() = default;

void ThreadCluster::pool_loop(Node& node, std::stop_token stop) {
  common::set_log_node(node.id);
  while (!stop.stop_requested()) {
    std::optional<PoolRequestMsg> msg = node.inbox.pop();
    if (!msg) break;  // mailbox closed: shutdown
    // A down node's core drops the request unseen and the requester
    // times out, exactly like probing a dead node.
    node.core().on_request(wall_ticks(), msg->from, msg->request);
  }
}

void ThreadCluster::decider_loop(Node& node, std::stop_token stop) {
  common::set_log_node(node.id);
  const common::Ticks start = wall_ticks();
  node.start_script(start);

  common::Ticks next_tick = start + config_.period;
  std::size_t crash_idx = 0;
  while (!stop.stop_requested()) {
    std::this_thread::sleep_until(to_time_point(next_tick));
    if (stop.stop_requested()) break;
    common::Ticks now = wall_ticks();

    if (crash_idx < node.crash_plan.size() && node.core().alive() &&
        now - start >= node.crash_plan[crash_idx].first) {
      // Crash: the core seizes the pool and the cap share above the safe
      // floor; with any reply-box grants they are orphaned until the
      // restart self-reclaims them (or the run ends with the node down).
      double residue = node.core().crash();
      while (auto msg = node.grant_box().try_pop())
        residue += msg->grant.watts;
      node.orphaned.fetch_add(residue, std::memory_order_acq_rel);
      node.crashes.inc();
      recorder_.record(now, 0, telemetry::TxnEventKind::kStranded, node.id,
                       -1, residue);
    }
    if (!node.core().alive()) {
      if (now < start + node.crash_plan[crash_idx].second) {
        next_tick += config_.period;  // still down: idle at the floor
        continue;
      }
      // Restart: bumped incarnation, late grants drained, orphaned watts
      // self-reclaimed into the fresh pool.
      node.incarnation.fetch_add(1, std::memory_order_acq_rel);
      double late = 0.0;
      while (auto msg = node.grant_box().try_pop())
        late += msg->grant.watts;
      double leftover =
          node.orphaned.exchange(0.0, std::memory_order_acq_rel) + late;
      node.core().restart(leftover);
      node.restarts.inc();
      recorder_.record(now, 0, telemetry::TxnEventKind::kReclaimed,
                       node.id, node.id, leftover);
      ++crash_idx;
    }

    node.decide(now);
    next_tick += config_.period;
  }
}

void ThreadCluster::run_for(common::Ticks duration) {
  PEN_CHECK(!running_.exchange(true));
  for (auto& node : nodes_) {
    Node* n = node.get();
    node->pool_thread = std::jthread(
        [this, n](std::stop_token st) { pool_loop(*n, st); });
    node->decider_thread = std::jthread(
        [this, n](std::stop_token st) { decider_loop(*n, st); });
  }

  std::this_thread::sleep_for(std::chrono::microseconds(duration));

  for (auto& node : nodes_) {
    node->decider_thread.request_stop();
    node->pool_thread.request_stop();
  }
  // Closing mailboxes wakes blocked pops; jthread destructors would join
  // anyway, but joining deciders before pools avoids deciders blocking on
  // replies from already-stopped pools longer than one timeout.
  for (auto& node : nodes_) {
    node->grant_box().close();
  }
  for (auto& node : nodes_) {
    if (node->decider_thread.joinable()) node->decider_thread.join();
  }
  for (auto& node : nodes_) {
    node->inbox.close();
    if (node->pool_thread.joinable()) node->pool_thread.join();
  }

  // Drain reply boxes: grants that raced shutdown carry real watts. The
  // core banks them through the same window (a duplicate that raced
  // shutdown must not deposit twice); a node still down orphans them.
  for (auto& node : nodes_) {
    while (auto msg = node->grant_box().try_pop()) {
      if (node->core().alive()) {
        node->core().on_grant(wall_ticks(), msg->from, msg->grant);
      } else {
        node->orphaned.fetch_add(msg->grant.watts,
                                 std::memory_order_acq_rel);
      }
    }
  }
  running_ = false;
}

std::vector<ThreadNodeReport> ThreadCluster::reports() const {
  std::vector<ThreadNodeReport> reports;
  for (const auto& node : nodes_) {
    ThreadNodeReport report;
    report.id = node->id;
    report.final_cap = node->core().cap();
    report.final_pool = node->core().pool().available();
    report.decider = node->core().decider().stats();
    report.pool = node->core().pool().stats();
    report.grants_received = node->observer.grants_applied.value();
    report.timeouts = node->observer.timeouts.value();
    report.duplicates_dropped = node->observer.duplicates_dropped.value();
    report.crashes = node->crashes.value();
    report.restarts = node->restarts.value();
    report.incarnation = node->incarnation.load(std::memory_order_acquire);
    report.orphaned_watts = node->orphaned.load(std::memory_order_acquire);
    reports.push_back(report);
  }
  return reports;
}

double ThreadCluster::total_live_watts() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->core().cap() + node->core().pool().available();
  }
  return total;
}

double ThreadCluster::orphaned_watts() const {
  double total = 0.0;
  for (const auto& node : nodes_)
    total += node->orphaned.load(std::memory_order_acquire);
  return total;
}

double ThreadCluster::budget() const {
  return config_.initial_cap_watts * config_.n_nodes;
}

}  // namespace penelope::rt
