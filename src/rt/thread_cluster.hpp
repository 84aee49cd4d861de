// Real-thread Penelope runtime: the same core::PenelopeNode the
// simulator drives, here running under genuine concurrency — one
// decider thread and one pool-service thread per node, in-process
// mailboxes as the transport, wall-clock periods, and the SimulatedRapl
// model advanced in real time (swap in SysfsRapl on hardware that has
// it; examples/live_threads.cpp shows the fallback chain).
//
// The driver keeps only its transport (mailboxes), its clock (the
// blocking grant wait against a deadline), and its fault model (the
// scripted crash plan and orphan ledger): the discrete-event results
// stand on protocol code that demonstrably also runs correctly under
// preemption, lock contention, and real timeouts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/node.hpp"
#include "power/simulated_rapl.hpp"
#include "rt/mailbox.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"

namespace penelope::rt {

/// Wall-clock microseconds since an arbitrary process-local epoch.
common::Ticks wall_ticks();
std::chrono::steady_clock::time_point to_time_point(common::Ticks ticks);

/// One step of a node's scripted demand trajectory.
struct DemandPhase {
  double demand_watts = 0.0;
  common::Ticks duration = common::kTicksPerSecond;
};

/// A grant on its way to an rt decider thread, tagged with its sender.
struct GrantMsg {
  int from = -1;
  core::PowerGrant grant;
};

/// The rt drivers' observer: maps one node core's event stream onto the
/// driver's rt_* / udp_* counters and its flight journal. Counters are
/// registry-backed (lock-free) and the journal is mutex-guarded, so both
/// of a node's threads may record through it. Until register_counters
/// runs (the overhead harness never calls it) it records nothing.
struct RtNodeTelemetry {
  /// Register <prefix>_grants_applied_total, <prefix>_timeouts_total and
  /// <prefix>_duplicates_dropped_total for `node`.
  void register_counters(telemetry::MetricsRegistry& registry,
                         const std::string& prefix, int node,
                         telemetry::FlightRecorder& journal);
  void record(const core::ProtocolEvent& event);

  int node = 0;
  telemetry::FlightRecorder* recorder = nullptr;
  telemetry::Counter grants_applied;
  telemetry::Counter timeouts;
  telemetry::Counter duplicates_dropped;
  /// Left unregistered (a no-op) by drivers that do not export it.
  telemetry::Counter requests_sent;
};

/// What every rt node is configured with; ThreadClusterConfig and
/// UdpNodeConfig extend it.
struct RtNodeConfig {
  double initial_cap_watts = 120.0;
  double epsilon_watts = 5.0;
  /// Decider period (wall time). Shorter than the paper's 1 s so tests
  /// and examples converge in human time; the protocol is identical.
  common::Ticks period = common::from_millis(20);
  common::Ticks request_timeout = common::from_millis(20);
  core::PoolConfig pool;
  power::SafeRange safe_range{.min_watts = 40.0, .max_watts = 250.0};
  double idle_watts = 40.0;
  double rapl_tau_seconds = 0.02;  ///< scaled with the shortened period
  /// Transaction flight-recorder ring size; 0 disables the journal.
  std::size_t flight_recorder_capacity = 0;
  std::uint64_t seed = 42;
};

/// What every rt driver's node shares: the SimulatedRapl model advanced
/// in wall time along a demand script, the protocol core, and the
/// decider thread's grant mailbox and blocking wait. Drivers add the
/// transport (the send_* effects and draw_peer), their threads, and
/// their fault model. The core's request side (on_request, and through
/// it send_grant and on_event) may run on a second thread.
class RtNode : public core::NodeDriver {
 public:
  RtNode(const RtNodeConfig& config, int id,
         std::vector<DemandPhase> script, std::uint64_t rapl_seed);

  /// Decider thread, before the first period: the script starts now.
  void start_script(common::Ticks now);
  /// Decider thread, once a period: walk the demand script to `now`
  /// (the last phase persists), run the core's tick on the measured
  /// power, and block until the request it sent, if any, resolves.
  void decide(common::Ticks now);

  core::PenelopeNode& core() { return core_; }
  const core::PenelopeNode& core() const { return core_; }
  Mailbox<GrantMsg>& grant_box() { return grant_box_; }

  RtNodeTelemetry observer;

 private:
  void arm_timeout() override;
  void cancel_timeout() override {}
  void on_event(const core::ProtocolEvent& event) override {
    observer.record(event);
  }

  common::Ticks request_timeout_;
  std::vector<DemandPhase> script_;
  std::size_t phase_ = 0;
  common::Ticks phase_start_ = 0;
  power::SimulatedRapl rapl_;
  core::PenelopeNode core_;
  Mailbox<GrantMsg> grant_box_;
  std::chrono::steady_clock::time_point deadline_;
};

/// A scripted crash–restart for one node, in wall time relative to the
/// start of run_for. While down the node's pool drops incoming requests
/// (peers time out, exactly like probing a dead node) and its decider
/// idles; at `at + down_for` it restarts with a bumped incarnation,
/// volatile state (both receive windows, the outstanding request) wiped,
/// and its orphaned watts — crash residue plus grants that arrived while
/// it was down — self-reclaimed into the pool.
struct ThreadCrashEvent {
  int node = 0;
  common::Ticks at = 0;
  common::Ticks down_for = common::from_millis(100);
};

struct ThreadClusterConfig : RtNodeConfig {
  int n_nodes = 4;
  /// Crash–restart churn schedule; empty (default) disables churn.
  std::vector<ThreadCrashEvent> crash_events;
};

struct ThreadNodeReport {
  int id = 0;
  double final_cap = 0.0;
  double final_pool = 0.0;
  core::DeciderStats decider;
  core::PoolStats pool;
  std::uint64_t grants_received = 0;
  std::uint64_t timeouts = 0;
  /// Redelivered messages refused by this node's receive windows (the
  /// mailbox transport never duplicates, but the protocol does not
  /// assume so).
  std::uint64_t duplicates_dropped = 0;
  /// Crash–restart churn bookkeeping.
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint32_t incarnation = 1;
  /// Watts seized by a crash and not yet self-reclaimed (nonzero only
  /// for a node still down when the run ended).
  double orphaned_watts = 0.0;
};

class ThreadCluster {
 public:
  /// `demand_scripts[i]` drives node i's power demand over wall time;
  /// the last phase persists once reached.
  ThreadCluster(ThreadClusterConfig config,
                std::vector<std::vector<DemandPhase>> demand_scripts);
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Launch all threads, run for `duration` wall time, stop, join.
  void run_for(common::Ticks duration);

  /// Reports are valid after run_for returned.
  std::vector<ThreadNodeReport> reports() const;

  /// Total live power (caps + pools + in-flight); for conservation
  /// checks after shutdown.
  double total_live_watts() const;
  /// Watts orphaned by crashes whose nodes never restarted; the
  /// conservation check under churn is
  /// total_live_watts() + orphaned_watts() == budget().
  double orphaned_watts() const;
  double budget() const;

  /// Aggregated view of the sharded per-node counters (grants applied,
  /// timeouts, duplicates dropped), exportable via
  /// telemetry::to_prometheus_text.
  std::vector<telemetry::MetricSample> metrics_snapshot() const {
    return registry_.snapshot();
  }
  telemetry::MetricsRegistry& registry() { return registry_; }
  const telemetry::FlightRecorder& flight_recorder() const {
    return recorder_;
  }

 private:
  struct Node;

  void decider_loop(Node& node, std::stop_token stop);
  void pool_loop(Node& node, std::stop_token stop);

  ThreadClusterConfig config_;
  // Registry precedes nodes: nodes cache handles into registry cells.
  telemetry::MetricsRegistry registry_{telemetry::Concurrency::kSharded};
  telemetry::FlightRecorder recorder_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<bool> running_{false};
};

}  // namespace penelope::rt
