// Flat-arena actors for hierarchical pool federation (DESIGN.md §13).
//
// The classic cluster path allocates one actor object per node — decider,
// SimulatedRapl, Application, pool, txn window — behind a unique_ptr,
// which is fine at 10^3 nodes and hostile at 10^5..10^6: each tick
// pointer-chases through a dozen cache lines of per-node heap islands.
// The arena restructures all per-node state into NodeId-indexed columns
// (struct of arrays, the PR-4 Network-tables idiom): a node's decider
// tick touches a handful of contiguous doubles, and the whole population
// fits in a few flat allocations sized once at construction.
//
// Scheduling is batched epoch sweeps, not per-node timers: one periodic
// sweep-lane event per shard slice walks its column range in index order
// each period, so the heap carries O(sim_jobs) recurring events instead
// of O(N), and request timeouts are detected in-sweep by timestamp
// comparison instead of costing two heap operations per request. On top
// of that sits active-set scheduling: per-slice dirty bitsets plus a
// wake heap of closed-form future events (phase boundaries, timeouts)
// let a sweep touch only nodes with something to decide, while
// equilibrium nodes advance lazily via the anchor columns when next
// touched or sampled. DESIGN.md §15 carries the full determinism
// argument; the short form is that sweeps run in a trace-neutral lane,
// iterate in index order, and never reorder sends or RNG draws, so
// traces stay bit-identical across sim_jobs and across
// active-set/brute-force modes.
//
// The power/progress model on this path is deliberately idealized:
// delivered power = min(cap, demand) with no first-order RAPL lag or
// measurement noise, progress via the shared concave PerformanceModel,
// energy = delivered x dt. Everything the federation experiment measures
// — redistribution, convergence, conservation, message volume — depends
// on the allocation dynamics, which are identical to the classic path's
// decider rule (release excess above epsilon, request deficit up to the
// safe ceiling, at-most-one outstanding request).
//
// Conservation: every watt moves through the existing ClusterMetrics
// ledger (grant_departed/arrived, stranded, epoch-tagged residues), so
// ConservationAudit holds to float tolerance under loss and churn.
// Threading: a node's columns are touched only by its shard (its tick
// and its endpoint handler) or at barriers (crash/recover/audit); a
// pool's columns only by the pool's shard. Distinct vector elements are
// distinct memory locations, so sharded runs need no locks — the same
// argument the metrics slots and Network tables already make.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/metrics.hpp"
#include "common/units.hpp"
#include "core/txn_window.hpp"
#include "hierarchy/federation.hpp"
#include "net/network.hpp"
#include "power/performance_model.hpp"
#include "power/power_interface.hpp"
#include "sim/simulator.hpp"
#include "workload/npb.hpp"

namespace penelope::cluster {

struct ArenaConfig {
  int n_nodes = 0;
  double initial_cap_watts = 160.0;
  double epsilon_watts = 5.0;
  common::Ticks period = common::kTicksPerSecond;
  common::Ticks request_timeout = common::kTicksPerSecond;
  power::SafeRange safe_range;
  power::PerformanceModelConfig perf;
  hierarchy::FederationConfig federation;
  std::uint64_t seed = 42;
  /// Active-set scheduling: sweeps touch only dirty nodes (nodes whose
  /// cap, phase, or pending protocol state changed, or whose wake time
  /// arrived). false = brute-force full sweep every period — same
  /// per-node decisions in the same index order, so traces are
  /// bit-identical either way (the parity suite pins this); the knob
  /// exists for that test and for measuring the skip win.
  bool active_set = true;
};

class FederatedArena {
 public:
  /// Resolves the simulator a NodeId's events run on (the cluster's
  /// node_sim: the heap of the node's shard, the one heap at sim_jobs=1).
  /// Must cover pool ids (>= n_nodes) too.
  using SimOf = std::function<sim::Simulator&(net::NodeId)>;
  using OnComplete = std::function<void(net::NodeId, common::Ticks)>;

  FederatedArena(const ArenaConfig& config,
                 const hierarchy::FederationTopology& topo,
                 net::Network& net, ClusterMetrics& metrics, SimOf sim_of,
                 std::vector<workload::WorkloadProfile> profiles,
                 OnComplete on_complete);

  FederatedArena(const FederatedArena&) = delete;
  FederatedArena& operator=(const FederatedArena&) = delete;

  /// Pool p's network address (pools live above the client id range).
  net::NodeId pool_node_id(int pool) const {
    return base_ + static_cast<net::NodeId>(pool);
  }

  const hierarchy::FederationTopology& topology() const { return topo_; }

  /// --- cluster-facing views --------------------------------------------
  double node_cap(int node) const {
    return cap_[static_cast<std::size_t>(node)];
  }
  double node_demand(int node) const;
  /// Instantaneous delivered power at `now`, read-only: walks phase
  /// boundaries in closed form from the node's anchor without mutating
  /// it, so observers can sample equilibrium nodes the sweep never
  /// touches.
  double node_power(int node, common::Ticks now) const;
  double node_fraction_complete(int node, common::Ticks now) const;
  bool node_done(int node) const {
    return done_[static_cast<std::size_t>(node)] != 0;
  }
  bool node_crashed(int node) const {
    return crashed_[static_cast<std::size_t>(node)] != 0;
  }
  std::uint32_t node_incarnation(int node) const {
    return incarnation_[static_cast<std::size_t>(node)];
  }
  double pool_available(int pool) const {
    return pool_available_[static_cast<std::size_t>(pool)];
  }
  double cap_total() const;
  double pool_total() const;
  /// Closed-form lazy fold in node-index order (jobs- and mode-invariant
  /// summation order: the observability suite pins the sampled series
  /// bit-for-bit across sim_jobs). Never mutates anchors — an audit or
  /// sample costs one read pass, not an O(N) advance.
  double total_energy_joules(common::Ticks now) const;

  /// One-pass telemetry view of a node (cap, demand, delivered power,
  /// energy) — the sampler's per-node read, fused so the closed-form
  /// phase walk runs once instead of once per field.
  struct NodeSample {
    double cap = 0.0;
    double demand = 0.0;
    double power = 0.0;
    double energy_j = 0.0;
  };
  NodeSample sample_node(int node, common::Ticks now) const;

  /// Active-set introspection for tests and benches: whether a node is
  /// marked for the next sweep, and how many are.
  bool node_in_active_set(int node) const;
  int active_set_size() const;

  /// Crash/restart with epoch-guarded reclamation: crash strands the
  /// cap residue tagged (node, incarnation); restart bumps the
  /// incarnation and reclaims its predecessor's tag (unless a drop
  /// handler already fattened it — that is reclaimed too). Sharded
  /// mode: barrier context only (the cluster's churn/fault plane).
  void crash_node(int node, common::Ticks now);
  void recover_node(int node, common::Ticks now);

 private:
  static constexpr int kDedupRing = 4;

  /// One contiguous run of NodeIds whose events live on the same
  /// simulator (shard_of is monotone, so each shard owns exactly one
  /// slice; serial runs have one slice for everything). The slice is the
  /// sweep unit: one periodic sweep-lane event per slice replaces the
  /// old one-timer-per-node storm, and the dirty bitset + wake heap are
  /// slice-local so sharded sweeps never share a cache line across
  /// shards (separate heap allocations, the metrics-slot argument).
  struct Slice {
    int first = 0;
    int last = 0;  ///< exclusive
    sim::Simulator* sim = nullptr;
    /// Bit (i - first) set => node i is in the active set: its next
    /// sweep must run node_tick on it. Order-free set-union writes only.
    std::vector<std::uint64_t> dirty;
    /// Min-heap (std::push_heap on >) of scheduled self-wakes: phase
    /// boundaries and request timeouts of nodes that left the active
    /// set. wake_at_ dedups pushes; stale entries are dropped on pop.
    struct Wake {
      common::Ticks at;
      std::int32_t node;
      bool operator>(const Wake& o) const {
        return at > o.at || (at == o.at && node > o.node);
      }
    };
    std::vector<Wake> wakes;
  };

  /// Move the node's anchor across every phase boundary <= t, folding
  /// energy and work in closed form and firing completion. Anchor
  /// mutations are pure functions of prior anchor state, so the result
  /// is bit-identical whether boundaries are crossed one sweep at a
  /// time (brute force) or lazily at the next touch (active set).
  void materialize(int node, common::Ticks t);
  /// materialize, then fold the partial segment [anchor, t) and move the
  /// anchor to t. Only called at protocol-determined instants (grant
  /// apply, crash, recover) that occur identically in every mode/shape.
  void reanchor(int node, common::Ticks t);
  /// Refresh the cached demand_/delivered_/speed_ columns from the
  /// materialized phase and current cap (zero when done or crashed).
  void refresh_rate(int node);
  /// Read-only mirror of materialize + partial fold: walks boundaries
  /// virtually from the anchor without mutating columns.
  struct EvalView {
    double power = 0.0;
    double energy_j = 0.0;
    double work_done = 0.0;
  };
  EvalView eval(int node, common::Ticks t) const;

  void sweep(std::size_t slice, common::Ticks now);
  std::size_t slice_index_of(int node) const;
  void mark_dirty(int node);
  /// Post-tick transition out of the active set: schedule a self-wake at
  /// the next closed-form event (phase boundary or request timeout).
  void schedule_wake(Slice& s, int node, common::Ticks now);

  void node_tick(int node, common::Ticks now, Slice& s);
  void handle_node_message(int node, const net::Message& msg);
  /// First-sighting filter for grants (small per-node ring instead of a
  /// full TxnWindow: a node only ever receives from its one leaf pool).
  bool first_sighting(int node, std::uint64_t txn);
  /// Bank `watts` into the node's leaf pool (departure ledgered).
  void push_to_leaf(int node, double watts);

  void pool_tick(int pool, common::Ticks now);
  void handle_pool_message(int pool, const net::Message& msg);

  ArenaConfig config_;
  hierarchy::FederationTopology topo_;
  net::Network& net_;
  ClusterMetrics& metrics_;
  SimOf sim_of_;
  OnComplete on_complete_;
  power::PerformanceModel model_;
  net::NodeId base_ = 0;

  /// --- node columns (one slot per client NodeId) -----------------------
  /// Progress state is anchor-based: energy_j_/work_left_/work_done_ are
  /// exact AT anchor_at_, and everything since accrues in closed form at
  /// the cached delivered_/speed_ rates (constant between boundaries on
  /// the idealized model). Reads never mutate; writes happen only at
  /// phase boundaries (materialize) and protocol instants (reanchor).
  std::vector<double> cap_;
  std::vector<double> energy_j_;
  std::vector<common::Ticks> anchor_at_;
  /// Cached per-node rates of the materialized phase: demand_ is the
  /// phase demand, delivered_ = min(cap, demand), speed_ the model speed
  /// (all zero when done or crashed). Maintained by refresh_rate().
  std::vector<double> demand_;
  std::vector<double> delivered_;
  std::vector<double> speed_;
  /// Workload phases flattened across all nodes: node i's phases are
  /// phase_demand_/phase_work_[phase_first_[i] .. +phase_count_[i]).
  std::vector<double> phase_demand_;
  std::vector<double> phase_work_;
  std::vector<std::int32_t> phase_first_;
  std::vector<std::int32_t> phase_count_;
  std::vector<std::int32_t> phase_idx_;
  std::vector<double> work_left_;   ///< work-seconds left in current phase
  std::vector<double> work_done_;
  std::vector<double> work_total_;
  std::vector<std::uint8_t> done_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint32_t> incarnation_;
  std::vector<std::uint64_t> outstanding_txn_;
  std::vector<common::Ticks> outstanding_sent_at_;
  /// Earliest queued self-wake per node (0 = none): dedups wake-heap
  /// pushes and identifies stale heap entries on pop. Request timeouts
  /// are folded into the sweep (detected by timestamp comparison), so
  /// the per-request timeout heap event of the old path is gone.
  std::vector<common::Ticks> wake_at_;
  std::vector<std::uint64_t> req_seq_;
  std::vector<std::uint64_t> push_seq_;
  std::vector<std::uint64_t> dedup_;       ///< n_nodes x kDedupRing
  std::vector<std::uint8_t> dedup_next_;

  std::vector<Slice> slices_;

  /// --- pool columns (one slot per pool) --------------------------------
  std::vector<double> pool_available_;
  /// Leaf pools: node watts requested but not granted this period.
  std::vector<double> pool_deficit_accum_;
  /// Deficit pool p last reported to its parent (written by the parent's
  /// message handler, consumed by the parent's tick — same shard).
  std::vector<double> pool_pending_up_;
  /// Freshness guard for deficit reports: reordering must not let a
  /// stale report overwrite a newer one.
  std::vector<std::uint64_t> pool_last_report_seq_;
  std::vector<core::TxnWindow> pool_window_;
  std::vector<std::uint64_t> pool_req_seq_;
  std::vector<std::uint64_t> pool_push_seq_;

  /// --- causal flow-trace columns (telemetry only, never fed back into
  /// the protocol; all zero and untouched unless the cluster enabled
  /// metrics().tracer()). Ownership mirrors the neighbouring pool
  /// columns: inflow/deficit by pool p's shard, pending by the parent's.
  /// Flow that most recently fed pool p (a push, transfer, or reclaim):
  /// outgoing transfers and grants are attributed to it — the documented
  /// most-recent-inflow approximation of "the watts you got are the
  /// watts I last received".
  std::vector<std::uint64_t> pool_inflow_flow_;
  /// Demand-side flow: the node request that first went unmet at leaf p
  /// this period, threaded up the deficit-report chain.
  std::vector<std::uint64_t> pool_deficit_flow_;
  /// Flow carried by child c's pending deficit report.
  std::vector<std::uint64_t> pool_pending_flow_;
};

}  // namespace penelope::cluster
