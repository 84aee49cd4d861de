// Cluster assembly and experiment runner: builds a simulated cluster
// under one of the three power-management systems the paper evaluates
// (Fair, SLURM-style central, Penelope), runs the workload, and collects
// the measurements every figure is computed from.
//
// Topology mirrors §4.1: N client nodes run applications; the central
// manager adds one extra node (id = N) hosting the server — "20 of these
// are client nodes that run actual applications, and 1 is used to host
// the server for SLURM. Penelope and Fair use only the 20 client nodes."
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "central/server.hpp"
#include "cluster/actors.hpp"
#include "cluster/arena.hpp"
#include "cluster/invariants.hpp"
#include "cluster/metrics.hpp"
#include "cluster/trace.hpp"
#include "core/pool.hpp"
#include "net/network.hpp"
#include "net/serial_server.hpp"
#include "sim/sharded.hpp"
#include "telemetry/health.hpp"
#include "telemetry/time_series.hpp"
#include "workload/npb.hpp"

namespace penelope::cluster {

enum class ManagerKind {
  kFair,          ///< static even split (§2.3.1)
  kCentral,       ///< SLURM-style central manager (§2.3.2)
  kPenelope,      ///< the paper's peer-to-peer system (§3)
  kHierarchical,  ///< PoDD-style profiled assignment + central (§2.3.3)
};

const char* manager_name(ManagerKind kind);

struct FaultEvent {
  enum class Kind {
    /// Kill the central server node (network + service): Figure 3.
    kKillServer,
    /// Kill one node's management plane (decider + pool); the workload
    /// keeps running at the frozen cap. Penelope's analogue of losing a
    /// coordinator process.
    kKillManagement,
    /// Split the network into two islands: client nodes [0, node) vs
    /// [node, N) — the server node (central managers) lands in the
    /// second island. §1 names partitions as the failure that halts a
    /// centralized manager entirely.
    kPartition,
    /// Heal any active partition.
    kHealPartition,
    /// Crash a client node entirely: volatile state (transaction
    /// windows, banked grants, pool) is lost, the cap collapses to the
    /// safe minimum, and the residue is stranded against the node's
    /// current incarnation for epoch-guarded reclamation.
    kCrashNode,
    /// Restart a previously crashed node: it rejoins with a bumped
    /// incarnation and reclaims its own previous incarnation's residue
    /// (if no peer got there first).
    kRecoverNode,
    /// Asymmetric (one-way) partition: messages from client nodes
    /// [0, node) to [node, N) + server are dropped; the reverse
    /// direction still flows. The failure mode a half-broken switch or
    /// asymmetric routing exhibits — requests arrive, grants vanish.
    kAsymPartition,
    /// Heal any active one-way block.
    kHealAsymPartition,
    /// Pause a node (process stall / long GC / VM migration): volatile
    /// state survives, inbound and outbound frames queue in the NIC and
    /// replay at resume. No watts strand.
    kPauseNode,
    /// Resume a paused node.
    kResumeNode,
    /// Per-link latency burst: node `node`'s sends gain `magnitude`
    /// seconds of extra one-way latency until t = `until`.
    kLatencyBurst,
    /// Swap the stochastic fault knobs (loss/dup/reorder/corrupt) to
    /// `rates`; schedules emit these in pairs to make bounded hostile
    /// windows, each independently droppable by the shrinker.
    kSetFaultRates,
  };
  Kind kind = Kind::kKillServer;
  common::Ticks at = 0;
  /// For kKillManagement/kCrashNode/kRecoverNode/kPauseNode/kResumeNode/
  /// kLatencyBurst: which client node. For kPartition/kAsymPartition:
  /// the split point.
  net::NodeId node = 0;
  /// kLatencyBurst only: burst end time.
  common::Ticks until = 0;
  /// kLatencyBurst only: extra one-way latency in seconds.
  double magnitude = 0.0;
  /// kSetFaultRates only.
  net::FaultRates rates{};
};

struct ClusterConfig {
  ManagerKind manager = ManagerKind::kPenelope;
  int n_nodes = 20;
  /// Event-execution threads for this single run (DESIGN.md §12): the
  /// shard count of the run's sim::ShardedSimulator. 1 (the default) is
  /// the one-shard engine, which runs every event on one heap in
  /// scheduling order; >1 shards the nodes over that many heaps advanced
  /// in conservative time windows, with a bit-identical merged trace.
  /// Clamped to n_nodes. Runs with the membership layer enabled clamp it
  /// to 1 with a warning: peer reclamation is cross-shard protocol
  /// feedback with no conservative window.
  int sim_jobs = 1;
  double per_socket_cap_watts = 80.0;
  int sockets_per_node = 2;
  double epsilon_watts = 5.0;
  common::Ticks period = common::kTicksPerSecond;
  /// 0 means "one period".
  common::Ticks request_timeout = 0;
  /// Deciders start at a uniform offset in [0, start_jitter]. Small by
  /// default: deciders launched together stay roughly in phase, which is
  /// what loads a central server in bursts (§4.5.2's N x 80 µs
  /// extrapolation assumes exactly this).
  common::Ticks start_jitter = common::from_millis(10);
  double measurement_noise_watts = 0.5;
  power::SimulatedRaplConfig rapl;
  power::PerformanceModelConfig perf;
  core::PoolConfig pool;
  /// Penelope ablation knobs (see core/decider.hpp and actors.hpp).
  core::LocalTakePolicy local_take = core::LocalTakePolicy::kDrainAll;
  bool urgency_enabled = true;
  bool sticky_peers = false;
  bool hint_discovery = false;
  int blacklist_after_timeouts = 0;  ///< 0 disables peer blacklisting
  common::Ticks blacklist_duration = 30 * common::kTicksPerSecond;
  bool push_gossip = false;  ///< proactive excess diffusion (DESIGN §5b)
  double push_threshold_watts = 20.0;
  double push_fraction = 0.25;
  central::ServerConfig server;
  net::NetworkConfig network;
  /// Central server request processing: the paper's measured 80–100 µs.
  net::SerialServerConfig server_service;
  /// Hierarchical manager: profile reports per node before assignment.
  int podd_profile_periods = 5;
  /// Hierarchical pool federation (DESIGN.md §13), Penelope manager
  /// only. 0 (default) disables it and runs the classic flat-actor
  /// path, bit-identical to the pinned golden traces. > 0 switches to
  /// the flat-arena path: deciders bank into / request from this many
  /// leaf pools, which federate residual surplus and deficit up a
  /// fanout-ary tree in one aggregated message per pool per period.
  int federation_pools = 0;
  int federation_fanout = 8;
  /// Pool aggregation period; 0 means "one decider period".
  common::Ticks federation_period = 0;
  /// Local serving buffer a pool retains before federating surplus up.
  double federation_low_water_watts = 30.0;
  /// Arena sweep scheduling (federated path only): true (default) runs
  /// active-set sweeps — per-shard dirty bitsets plus closed-form wake
  /// times, so a period costs O(changed nodes). false brute-force
  /// sweeps every node every period. Traces, conservation, and energy
  /// are bit-identical either way (the arena parity suite pins this);
  /// the knob exists for that comparison and for benchmarking.
  bool arena_active_set = true;
  /// Penelope pool request processing: a local cache probe.
  net::SerialServerConfig pool_service =
      net::SerialServerConfig{.service_min = 5, .service_max = 10,
                              .queue_capacity = 1024, .seed = 7};
  std::vector<FaultEvent> faults;
  /// Membership layer (DESIGN §3b): heartbeat-driven failure detection
  /// plus epoch-guarded reclamation of dead peers' stranded watts. Off
  /// by default so zero-churn runs stay bit-identical to the pinned
  /// golden trace.
  bool membership_enabled = false;
  core::MembershipConfig membership;
  /// Crash–restart churn: when enabled, every client node draws an
  /// exponential lifetime (mean churn_mtbf_seconds) followed by an
  /// exponential repair time (mean churn_mttr_seconds), repeated until
  /// max_seconds. The schedule derives only from `seed`, so it is
  /// reproducible and composes with sweep parallelism.
  bool churn_enabled = false;
  double churn_mtbf_seconds = 120.0;
  double churn_mttr_seconds = 10.0;
  /// Hard deadline for run(); experiments that do not finish report
  /// all_completed = false with runtime == deadline.
  double max_seconds = 3600.0;
  common::Ticks audit_interval = common::kTicksPerSecond;
  /// Liveness watchdog (piggybacks on the audit task, so enabling it
  /// schedules no extra events and leaves the trace hash untouched): if
  /// sim time advances `watchdog_s` seconds with zero decider steps
  /// while work remains and at least one node is neither crashed nor
  /// done, the run is declared wedged — a diagnostic dump (pending
  /// events, per-node outstanding txns, last health probe) goes to the
  /// log, RunResult.wedged is set, and the run stops early (or aborts,
  /// below). 0 (default) disables the watchdog; benches leave it off,
  /// chaos/DST ctest jobs turn it on. Not meaningful under kFair (no
  /// deciders). Requires audit_interval > 0 to observe progress.
  double watchdog_s = 0.0;
  /// When the watchdog fires: true aborts the process after the dump
  /// (chaos ctest jobs — a wedged soak should fail loudly), false stops
  /// the run and reports wedged (the DST explorer treats wedged as an
  /// oracle violation and keeps exploring).
  bool watchdog_abort = false;
  /// TEST HOOK (DST planted bug): revert the PR 2 grant hardening —
  /// duplicate grants bypass the at-most-once dedup window and late
  /// grants deposit into the pool without the in-flight decrement,
  /// minting watts. The known-injectable conservation bug the DST swarm
  /// proves it can find and shrink. Never enable outside dst tests.
  bool test_revert_grant_fix = false;
  /// Per-node trajectory sampling cadence; 0 disables tracing.
  common::Ticks trace_interval = 0;
  /// Transaction flight-recorder ring size; 0 (default) disables the
  /// journal entirely, keeping the hot path a single predicted branch.
  std::size_t flight_recorder_capacity = 0;
  /// Cluster-wide time-series sampling cadence; 0 (default) disables
  /// the sampler and the health monitor entirely. Samples run on the
  /// control plane (barriers when sharded), so enabling them changes
  /// the trace hash relative to a disabled run — but identically for
  /// every sim_jobs value. Memory is O(pools + fixed series), never
  /// O(nodes): per-node detail stays the province of trace_interval.
  common::Ticks series_interval = 0;
  /// Ring capacity per series; on overflow the window width doubles and
  /// adjacent windows merge (downsampling), so memory stays bounded for
  /// arbitrarily long runs.
  std::size_t series_capacity = 512;
  /// Causal power-flow tracer ring size; 0 (default) disables flow
  /// tracing (one relaxed load + predicted branch per hop site).
  std::size_t flow_tracer_capacity = 0;
  /// Health-monitor convergence tolerance: converged means Jain's
  /// fairness index over active nodes' delivered power >= 1 - epsilon.
  double health_epsilon = 0.01;
  std::uint64_t seed = 42;

  double initial_node_cap() const {
    return per_socket_cap_watts * sockets_per_node;
  }
  double system_budget() const {
    return initial_node_cap() * n_nodes;
  }
};

struct RunResult {
  bool all_completed = false;
  /// Time for all nodes to finish their workloads (the paper's runtime
  /// definition), or the deadline if they did not.
  double runtime_seconds = 0.0;
  /// 1 / runtime — the paper's performance metric.
  double performance = 0.0;
  std::vector<double> node_completion_seconds;
  std::vector<double> turnaround_ms;
  std::uint64_t requests_sent = 0;
  std::uint64_t timeouts = 0;
  /// Total package energy consumed across all client nodes.
  double total_energy_joules = 0.0;
  net::NetworkStats net_stats;
  /// Central manager only.
  std::optional<net::SerialServerStats> server_stats;
  double stranded_watts = 0.0;
  /// Membership layer (zero unless membership_enabled).
  double watts_reclaimed = 0.0;
  std::uint64_t reclaims = 0;
  std::uint64_t nodes_suspected = 0;
  std::uint64_t false_suspicions = 0;
  std::uint64_t nodes_declared_dead = 0;
  /// Liveness watchdog verdict: true if the run was stopped because sim
  /// time advanced watchdog_s without any decider progress.
  bool wedged = false;
  AuditSummary audit;
};

class Cluster {
 public:
  /// `profiles` must contain exactly config.n_nodes workloads (node i
  /// runs profiles[i]).
  Cluster(ClusterConfig config,
          std::vector<workload::WorkloadProfile> profiles);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Run until every node's workload completes (or the deadline).
  RunResult run();

  /// Run for a fixed virtual-time window (scale study); the cluster
  /// remains inspectable afterwards.
  void run_for(double seconds);

  /// Snapshot the conservation audit right now.
  ConservationAudit audit() const;

  /// Dynamic system-budget reconfiguration: change the system-wide cap
  /// at the current virtual time. The delta is split evenly across
  /// nodes; increases take effect immediately (safe-ceiling overflow is
  /// pooled/donated), cuts retire power from caps and pools at once and
  /// leave the remainder as per-node retirement debt that drains from
  /// future excess. Returns the effective new budget (requested changes
  /// that no node could absorb — e.g. Fair at the safe ceiling — are
  /// not counted). Supported by all managers.
  double set_system_budget(double new_total_watts);

  /// The budget the audit currently enforces (config budget until the
  /// first set_system_budget call).
  double current_budget() const { return current_budget_; }

  /// Outstanding retirement debt across all nodes.
  double total_retirement_debt() const;

  RunResult collect_result() const;

  ClusterMetrics& metrics() { return metrics_; }
  const ClusterMetrics& metrics() const { return metrics_; }
  net::Network& network() { return *net_; }
  const ClusterConfig& config() const { return config_; }

  /// --- engine views -----------------------------------------------------
  /// Current virtual time: the executing context's clock during a run,
  /// the global frontier between runs.
  common::Ticks now_ticks() const { return engine_->context_now(); }
  /// Merged across shards; bit-identical for every sim_jobs value of the
  /// same configuration (the determinism contract the SimJobs tests pin).
  std::uint64_t trace_hash() const { return engine_->trace_hash(); }
  std::uint64_t executed_events() const {
    return engine_->executed_events();
  }
  std::size_t pending_events() const { return engine_->pending_events(); }
  std::size_t pending_high_water() const {
    return engine_->pending_high_water();
  }

  /// Crash / restart a client node now (Penelope and central managers).
  /// Idempotent; used by the fault scheduler and directly by tests.
  void crash_node(int node);
  void recover_node(int node);
  bool node_crashed(int node) const;
  /// The node's current incarnation (1 until its first restart).
  std::uint32_t node_incarnation(int node) const;

  /// Did the liveness watchdog declare this run wedged?
  bool wedged() const { return wedged_; }
  /// The txn id of the node's outstanding peer request, or 0 (classic
  /// Penelope path; used by the watchdog's diagnostic dump and tests).
  std::uint64_t node_outstanding_txn(int node) const;

  double node_cap(int node) const;
  double node_pool_watts(int node) const;  ///< Penelope only, else 0
  double server_cache_watts() const;       ///< central only, else 0
  bool node_app_done(int node) const;
  double node_fraction_complete(int node) const;
  /// Instantaneous delivered power / current workload demand at now().
  double node_power(int node) const;
  double node_demand(int node) const;

  /// Package energy consumed by all client nodes since t=0, advanced to
  /// now().
  double total_energy_joules() const;

  /// Recorded trajectory (empty unless config.trace_interval > 0).
  const Trace& trace() const { return trace_; }

  /// Cluster-wide time series (empty unless config.series_interval > 0).
  const telemetry::TimeSeriesSet& series() const { return series_; }
  /// Online health probes (empty unless config.series_interval > 0).
  const telemetry::HealthMonitor& health() const { return health_; }

  /// Federated arena path active (manager == kPenelope and
  /// federation_pools > 0)?
  bool federated() const { return arena_ != nullptr; }
  /// The arena, or nullptr on the classic path.
  const FederatedArena* arena() const { return arena_.get(); }
  FederatedArena* arena() { return arena_.get(); }

 private:
  void build(std::vector<workload::WorkloadProfile> profiles);
  void arm_faults();
  void arm_churn();
  void on_node_complete(net::NodeId node, common::Ticks at);
  NodeConfig make_node_config(int node);
  core::PenelopeConfig make_penelope_config(const NodeConfig& nc) const;
  /// The engine a node's actor lives on: its shard's heap.
  sim::Simulator& node_sim(int node) {
    return engine_->shard(shard_of_[static_cast<std::size_t>(node)]);
  }
  /// The engine cluster-global events (faults, churn, audit, trace
  /// sampling) run on: the control plane (the one heap at sim_jobs=1).
  sim::Simulator& control_sim() { return engine_->control(); }

  ClusterConfig config_;
  std::unique_ptr<sim::ShardedSimulator> engine_;  ///< sim_jobs shards
  std::vector<int> shard_of_;
  std::unique_ptr<net::Network> net_;
  ClusterMetrics metrics_;
  common::Rng rng_;

  std::vector<std::unique_ptr<FairNodeActor>> fair_nodes_;
  std::vector<std::unique_ptr<PenelopeNodeActor>> penelope_nodes_;
  std::vector<std::unique_ptr<CentralClientActor>> central_clients_;
  std::unique_ptr<CentralServerActor> server_;
  std::unique_ptr<HierarchicalServerActor> podd_server_;
  /// Federation (DESIGN.md §13): built in the constructor (the shard
  /// map must cover pool ids before the network exists), consumed by
  /// build() when it constructs the arena.
  std::unique_ptr<hierarchy::FederationTopology> fed_topo_;
  std::unique_ptr<FederatedArena> arena_;
  std::unique_ptr<sim::PeriodicTask> audit_task_;
  std::unique_ptr<sim::PeriodicTask> trace_task_;
  std::unique_ptr<sim::PeriodicTask> sampler_task_;
  Trace trace_;
  /// Sampler state (series_interval > 0 only). Handles are cached at
  /// construction so the per-sample path does no name hashing and no
  /// allocation once every series ring is at capacity.
  telemetry::TimeSeriesSet series_;
  telemetry::HealthMonitor health_;
  telemetry::TimeSeries* ts_delivered_ = nullptr;
  telemetry::TimeSeries* ts_demand_ = nullptr;
  telemetry::TimeSeries* ts_cap_ = nullptr;
  telemetry::TimeSeries* ts_pool_ = nullptr;
  telemetry::TimeSeries* ts_stranded_ = nullptr;
  telemetry::TimeSeries* ts_in_flight_ = nullptr;
  telemetry::TimeSeries* ts_energy_ = nullptr;
  telemetry::TimeSeries* ts_jain_ = nullptr;
  std::vector<telemetry::TimeSeries*> ts_pools_;
  void sample_telemetry(common::Ticks now);

  /// Telemetry mirror (classic Penelope path only): one dense row per
  /// node with everything a sample needs, refreshed lazily. Actors mark
  /// their dirty byte on every sampled-state mutation (decider, pool,
  /// rapl hooks); the sampler re-snapshots dirty nodes and then
  /// integrates the row array sequentially instead of chasing ~6 cache
  /// lines through every 1.7 KB actor per sample. Empty unless
  /// series_interval > 0.
  struct MirrorRow {
    double cap = 0.0;        ///< decider (ledger) cap
    double rapl_cap = 0.0;   ///< safe-range-clamped cap (power target)
    double demand = 0.0;
    double pool = 0.0;
    double debt = 0.0;
    double power0 = 0.0;     ///< rapl anchor: power at `last`
    double energy0 = 0.0;    ///< rapl anchor: joules at `last`
    common::Ticks last = 0;  ///< rapl anchor time
    double idle = 0.0;       ///< 1.0 when app_done or crashed
  };
  std::vector<MirrorRow> mirror_rows_;
  std::vector<std::uint8_t> mirror_dirty_;
  void refresh_mirror_row(std::size_t i);

  double current_budget_ = 0.0;
  int completed_nodes_ = 0;
  common::Ticks last_completion_ = 0;
  std::vector<std::optional<common::Ticks>> completions_;
  AuditSummary audit_summary_;

  /// Liveness watchdog state (watchdog_s > 0 only), advanced by the
  /// audit task at audit_interval cadence.
  void watchdog_check(common::Ticks now);
  void watchdog_dump(common::Ticks now);
  std::uint64_t watchdog_last_steps_ = 0;
  common::Ticks watchdog_last_progress_ = 0;
  bool wedged_ = false;
};

/// Build the paper's half/half workload assignment: nodes [0, n/2) run
/// `a`, nodes [n/2, n) run `b`, with per-node demand jitter derived from
/// `config.seed` so replicas are not bit-identical.
std::vector<workload::WorkloadProfile> make_pair_workloads(
    workload::NpbApp a, workload::NpbApp b, int n_nodes,
    workload::NpbConfig config);

}  // namespace penelope::cluster
