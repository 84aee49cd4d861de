// Simulation drivers ("actors") that wire the protocol logic to the
// discrete-event substrate: one per node kind.
//
//   FairNodeActor     — static cap; only advances the workload (§2.3.1)
//   PenelopeNodeActor — the sim driver of core::PenelopeNode (§3)
//   CentralClientActor / CentralServerActor — the SLURM-style system
//                       (§2.3.2, §4.1)
//
// Each actor owns a NodeBody (power model + application) ticked on the
// node's control period. All messaging goes through net::Network; pool
// and server request processing sits behind net::SerialServer so
// queueing delay and packet drops come out of the model, not out of
// special cases.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "central/client.hpp"
#include "central/server.hpp"
#include "cluster/metrics.hpp"
#include "hierarchy/podd_server.hpp"
#include "common/rng.hpp"
#include "core/decider.hpp"
#include "core/membership.hpp"
#include "core/node.hpp"
#include "core/pool.hpp"
#include "core/request_tracker.hpp"
#include "core/txn_window.hpp"
#include "net/network.hpp"
#include "net/serial_server.hpp"
#include "power/performance_model.hpp"
#include "power/simulated_rapl.hpp"
#include "sim/simulator.hpp"
#include "workload/application.hpp"

namespace penelope::cluster {

using net::NodeId;

struct NodeConfig {
  NodeId id = 0;
  double initial_cap_watts = 160.0;
  double epsilon_watts = 5.0;
  common::Ticks period = common::kTicksPerSecond;
  /// How long a decider waits for a grant before giving up; defaults to
  /// one period in ClusterConfig.
  common::Ticks request_timeout = common::kTicksPerSecond;
  /// First tick fires at this offset (decider start jitter).
  common::Ticks start_offset = 0;
  power::SimulatedRaplConfig rapl;
  power::PerformanceModelConfig perf;
  /// Gaussian noise added to the power reading the *manager* sees (the
  /// application always progresses on true delivered power).
  double measurement_noise_watts = 0.0;
  /// Membership layer (PROTOCOL.md "Membership and incarnations"): the
  /// node heartbeats `membership_peers` every heartbeat period and runs
  /// a FailureDetector over them. Off by default — heartbeats are extra
  /// traffic and detector events are extra simulator events, either of
  /// which would perturb the pinned golden trace.
  bool membership_enabled = false;
  core::MembershipConfig membership;
  std::vector<NodeId> membership_peers;
  std::uint64_t seed = 1;
};

/// Power model + workload progress shared by every actor kind.
class NodeBody {
 public:
  NodeBody(sim::Simulator& sim, const NodeConfig& config,
           workload::WorkloadProfile profile);

  /// Advance power and application to `now`; returns the *measured*
  /// average power since the previous tick (true average plus
  /// measurement noise). Fires `on_complete` once when the app finishes.
  double tick(common::Ticks now);

  void set_on_complete(std::function<void(NodeId, common::Ticks)> fn) {
    on_complete_ = std::move(fn);
  }

  bool app_done() const { return app_.done(); }
  std::optional<common::Ticks> completion_time() const {
    return app_.completion_time();
  }
  double fraction_complete() const { return app_.fraction_complete(); }
  power::SimulatedRapl& rapl() { return rapl_; }
  const power::SimulatedRapl& rapl() const { return rapl_; }
  const NodeConfig& config() const { return config_; }

 private:
  sim::Simulator& sim_;
  NodeConfig config_;
  power::SimulatedRapl rapl_;
  power::PerformanceModel perf_;
  workload::Application app_;
  common::Rng noise_rng_;
  common::Ticks last_tick_ = 0;
  bool completion_reported_ = false;
  std::function<void(NodeId, common::Ticks)> on_complete_;
};

/// Static allocation: the Fair baseline. The cap is set once and the
/// node merely runs its workload.
class FairNodeActor {
 public:
  FairNodeActor(sim::Simulator& sim, const NodeConfig& config,
                workload::WorkloadProfile profile);

  NodeBody& body() { return body_; }
  double cap() const { return body_.rapl().cap(); }

 private:
  NodeBody body_;
  sim::PeriodicTask tick_task_;
};

/// A Penelope node: a thin sim driver around core::PenelopeNode. The
/// actor owns the transport (net::Network, a SerialServer in front of
/// the pool), the request timer, the membership detector and
/// heartbeats, and the reclaim ledger; the protocol itself — decider,
/// pool, windows, outstanding request, peer choice, push gossip — is
/// the core's. Its event stream feeds ClusterMetrics.
class PenelopeNodeActor final : private core::NodeDriver {
 public:
  PenelopeNodeActor(sim::Simulator& sim, net::Network& net,
                    const NodeConfig& config,
                    const core::PenelopeConfig& protocol,
                    const net::SerialServerConfig& pool_service,
                    workload::WorkloadProfile profile,
                    std::function<NodeId()> pick_peer,
                    ClusterMetrics& metrics);

  /// Fault injection: stop the decider and the pool service while the
  /// application keeps running at its frozen cap (a management-plane
  /// crash, the Penelope analogue of losing SLURM's server process).
  void kill_management();

  /// Crash-restart fault injection (whole-node, unlike kill_management):
  /// the node drops off the network, loses its volatile protocol state
  /// (TxnWindows, banked pool, outstanding request, discovery caches),
  /// and its live power above the safe minimum is stranded against
  /// (id, incarnation) for epoch-guarded reclamation. The hardware keeps
  /// drawing at the firmware-default safe-minimum cap while down.
  void crash();
  /// Rejoin after crash(): incarnation bumps, the network endpoint and
  /// pool service come back, and any of this node's own crash residue
  /// that nobody reclaimed yet is self-reclaimed into the fresh pool.
  /// The node re-admits itself at fair share through the normal urgent
  /// path (it is far below its initial cap).
  void restart();
  bool crashed() const { return crashed_; }
  std::uint32_t incarnation() const { return incarnation_; }
  const core::FailureDetector* detector() const {
    return detector_ ? &*detector_ : nullptr;
  }

  NodeBody& body() { return body_; }
  /// The protocol state: decider, pool, outstanding request and stale
  /// map, blacklist.
  core::PenelopeNode& node() { return node_; }
  const core::PenelopeNode& node() const { return node_; }
  double cap() const { return node_.cap(); }
  double pool_watts() const { return node_.pool().available(); }
  double retirement_debt() const {
    return node_.decider().retirement_debt();
  }

  /// Observability: route every sampled-state mutation (cap, debt, pool,
  /// rapl anchor, crash/restart) to one dirty byte owned by the
  /// cluster's telemetry mirror. Never set on the golden path.
  void set_observer_dirty(std::uint8_t* cell) {
    observer_dirty_ = cell;
    node_.set_observer_dirty(cell);
    body_.rapl().set_observer_dirty(cell);
  }

  const net::SerialServerStats& pool_service_stats() const {
    return pool_service_.stats();
  }

 private:
  // core::NodeDriver
  bool send_request(NodeId peer, const core::PowerRequest& request) override;
  bool send_grant(NodeId peer, const core::PowerGrant& grant) override;
  void send_push(NodeId peer, const core::PowerPush& push) override;
  void arm_timeout() override;
  void cancel_timeout() override;
  NodeId draw_peer() override { return pick_peer_(); }
  bool peer_dead(NodeId peer) const override;
  void on_event(const core::ProtocolEvent& event) override {
    metrics_.record_protocol_event(body_.config().id, event);
  }

  void on_tick(common::Ticks now);
  void on_message(const net::Message& msg);
  void membership_tick(common::Ticks now);

  sim::Simulator& sim_;
  net::Network& net_;
  NodeBody body_;
  core::PenelopeNode node_;
  net::SerialServer pool_service_;
  std::function<NodeId()> pick_peer_;
  ClusterMetrics& metrics_;
  sim::PeriodicTask tick_task_;
  sim::EventId timeout_event_ = sim::kInvalidEventId;
  /// Membership: per-peer suspicion state, present only when enabled.
  std::optional<core::FailureDetector> detector_;
  std::vector<core::MembershipTransition> transitions_;  ///< tick scratch
  common::Ticks next_heartbeat_at_ = 0;
  std::uint32_t incarnation_ = 1;  ///< crash counter, bumps on restart()
  bool crashed_ = false;
  std::uint8_t* observer_dirty_ = nullptr;
};

/// SLURM-style client: classifies locally, moves all power through the
/// central server. With `hierarchical = true` the client first runs the
/// PoDD profiling phase — reporting its power draw each period instead
/// of shifting — until the server sends its learned CapAssignment, then
/// proceeds exactly like a central client from the assigned cap.
class CentralClientActor {
 public:
  CentralClientActor(sim::Simulator& sim, net::Network& net,
                     const NodeConfig& config, NodeId server_id,
                     workload::WorkloadProfile profile,
                     ClusterMetrics& metrics, bool hierarchical = false);

  NodeBody& body() { return body_; }
  const central::Client& client() const { return client_; }
  double cap() const { return client_.cap(); }
  bool awaiting_assignment() const { return awaiting_assignment_; }
  double retirement_debt() const { return client_.retirement_debt(); }

  /// Crash-restart (the SLURM-analogue churn path): the client drops to
  /// the safe-minimum cap, its seized share is stranded against
  /// (id, incarnation) so the server's detector can return it to the
  /// budget, and volatile state (grant window, outstanding request) is
  /// lost. restart() rejoins at a bumped incarnation; unreclaimed own
  /// residue is self-reclaimed and donated straight back to the server
  /// (re-admission then happens through the normal urgent path).
  void crash();
  void restart();
  bool crashed() const { return crashed_; }
  std::uint32_t incarnation() const { return incarnation_; }

  /// Dynamic budget reconfiguration (see core::PenelopeNode).
  double apply_budget_delta(double delta_watts);

  std::size_t stale_entries() const { return requests_.stale_entries(); }

  /// Outstanding request's txn id, 0 if none (watchdog diagnostics).
  std::uint64_t outstanding_txn() const {
    return requests_.outstanding_txn();
  }

 private:
  void on_tick(common::Ticks now);
  void on_message(const net::Message& msg);
  void on_grant(const net::Message& msg);
  /// The outstanding request timed out: the client moves on without it.
  void expire_request();
  void donate(double watts, common::Ticks now);

  sim::Simulator& sim_;
  net::Network& net_;
  NodeBody body_;
  central::Client client_;
  NodeId server_id_;
  ClusterMetrics& metrics_;
  sim::PeriodicTask tick_task_;
  /// The outstanding request, timed-out requests whose grants may still
  /// arrive (late grants are the norm when a saturated server answers
  /// slower than the decider period), and the at-most-once window over
  /// server grants. Unknown-txn grants are stranded-accounted and
  /// logged.
  core::RequestTracker requests_;
  sim::EventId timeout_event_ = sim::kInvalidEventId;
  std::uint64_t donation_seq_ = 0;  ///< stream-1 sequence for donations
  /// Hierarchical (PoDD) mode: true until the server's CapAssignment
  /// arrives; while true, ticks send ProfileReports and do not shift.
  bool awaiting_assignment_ = false;
  common::Ticks next_heartbeat_at_ = 0;
  std::uint32_t incarnation_ = 1;
  bool crashed_ = false;
};

/// PoDD-style hierarchical server (§2.3.3): collects profile reports,
/// computes per-group initial-cap assignments, broadcasts them, then
/// behaves as a central power server for steady-state refinement. Uses
/// the same serial-service queue model as the central server.
class HierarchicalServerActor {
 public:
  HierarchicalServerActor(sim::Simulator& sim, net::Network& net,
                          NodeId id,
                          const hierarchy::PoddConfig& config,
                          const net::SerialServerConfig& service,
                          ClusterMetrics& metrics);

  void kill();
  bool alive() const { return alive_; }

  /// SLURM-analogue membership: run a detector over the clients; a dead
  /// client's reclaimable share returns to the embedded central cache.
  void enable_membership(const core::MembershipConfig& config,
                         int n_clients);

  NodeId id() const { return id_; }
  const hierarchy::PoddServerLogic& logic() const { return logic_; }
  double cache_watts() const { return logic_.central().cache_watts(); }
  const net::SerialServerStats& service_stats() const {
    return service_.stats();
  }

 private:
  void process(const net::Message& msg);
  void membership_tick(common::Ticks now);
  /// Broadcast the learned CapAssignments exactly once, as soon as the
  /// profiling window closes — whether the closing event was the final
  /// ProfileReport or the expiry of a dead node's stale reports.
  void maybe_send_assignments();

  sim::Simulator& sim_;
  net::Network& net_;
  NodeId id_;
  hierarchy::PoddServerLogic logic_;
  net::SerialServer service_;
  ClusterMetrics& metrics_;
  /// At-most-once window over donations and requests; shared with the
  /// service's overflow drop handler so a queued copy of a stranded
  /// donation is recognised as a duplicate (and vice versa).
  core::TxnWindow txn_window_;
  std::optional<core::FailureDetector> detector_;
  std::optional<sim::PeriodicTask> detector_task_;
  std::vector<core::MembershipTransition> transitions_;
  bool alive_ = true;
  bool assignments_sent_ = false;
};

/// The central power server, parked behind the serial-service queue that
/// produces the paper's 80–100 µs per-request behaviour and its
/// saturation knee.
class CentralServerActor {
 public:
  CentralServerActor(sim::Simulator& sim, net::Network& net, NodeId id,
                     const central::ServerConfig& config,
                     const net::SerialServerConfig& service,
                     ClusterMetrics& metrics);

  /// Fault injection for Figure 3: the node dies; queued and future
  /// messages are lost (donation watts in them are stranded).
  void kill();
  bool alive() const { return alive_; }

  /// SLURM-analogue membership (the dead-client reclamation path the
  /// paper's comparison lacks): the server watches client heartbeats;
  /// a client declared dead has its seized share and stranded watts
  /// returned to the server budget via ServerLogic::reclaim. A client
  /// rejoining at a higher incarnation is readmitted implicitly — its
  /// urgent requests draw fair share back out of the cache.
  void enable_membership(const core::MembershipConfig& config,
                         int n_clients);

  NodeId id() const { return id_; }
  const central::ServerLogic& logic() const { return logic_; }
  double cache_watts() const { return logic_.cache_watts(); }
  const net::SerialServerStats& service_stats() const {
    return service_.stats();
  }

 private:
  void process(const net::Message& msg);
  void membership_tick(common::Ticks now);

  sim::Simulator& sim_;
  net::Network& net_;
  NodeId id_;
  central::ServerLogic logic_;
  net::SerialServer service_;
  ClusterMetrics& metrics_;
  /// See HierarchicalServerActor::txn_window_.
  core::TxnWindow txn_window_;
  std::optional<core::FailureDetector> detector_;
  std::optional<sim::PeriodicTask> detector_task_;
  std::vector<core::MembershipTransition> transitions_;
  bool alive_ = true;
};

}  // namespace penelope::cluster
