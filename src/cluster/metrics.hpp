// Cluster-wide measurement: everything the paper's evaluation reports is
// computed from the event streams collected here.
//
//   * turnaround time — per-transaction send→grant latency (Figures 7, 8)
//   * redistribution timeline — timestamped watts applied to caps through
//     transactions, against the excess released by a completion burst
//     (Figures 4, 5, 6)
//   * conservation accounting — grants in flight and watts stranded by
//     dropped messages or dead nodes, so the system-cap invariant can be
//     audited at any instant
//
// Counters and gauges live in a telemetry::MetricsRegistry so the same
// snapshot that backs these accessors can be exported as Prometheus text
// or Perfetto counter tracks. The embedded FlightRecorder (off unless
// ClusterConfig::flight_recorder_capacity enables it) journals per-
// transaction lifecycle events for the same run.
//
// Sharded runs (DESIGN.md §12): counters/gauges/histograms are atomic
// already; the event-list collectors (turnarounds, releases, applies)
// write into per-execution-context slots selected by
// sim::ShardedSimulator::current_context(), merged on read. Reclaim tags
// are dense per-node slots, each touched only by its owner's context
// in-window (drop handler in the destination's shard) or at barriers
// (crash/restart), so no lock is needed anywhere on the hot path.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "core/node.hpp"
#include "sim/sharded.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/flow_tracer.hpp"
#include "telemetry/registry.hpp"

namespace penelope::cluster {

struct TransferEvent {
  common::Ticks at = 0;
  double watts = 0.0;
  int node = -1;
};

class ClusterMetrics {
 public:
  ClusterMetrics();

  ClusterMetrics(const ClusterMetrics&) = delete;
  ClusterMetrics& operator=(const ClusterMetrics&) = delete;

  /// One event-collector slot per execution context of the run's engine
  /// (sim::ShardedSimulator::contexts()). With several contexts, also
  /// pre-size one reclaim-tag slot per node, so windows never resize
  /// shared storage.
  void configure_contexts(int contexts, int n_nodes);

  /// --- turnaround -------------------------------------------------------
  void record_turnaround(common::Ticks sent_at, common::Ticks resolved_at);
  void record_timeout() { timeouts_.inc(); }

  /// Merged across context slots (slot-major, so serial runs keep their
  /// exact append order). Call from a barrier or after the run.
  const std::vector<double>& turnaround_ms() const;
  std::uint64_t timeouts() const { return timeouts_.value(); }

  /// --- redistribution ---------------------------------------------------
  /// Watts released by a node lowering its cap (donation into a pool or
  /// to the server).
  void record_release(common::Ticks at, double watts, int node);
  /// Watts applied to a node's cap through a transaction (peer grant,
  /// server grant, or local pool take).
  void record_apply(common::Ticks at, double watts, int node);

  /// Merged across context slots and re-sorted by virtual time (stable,
  /// so a serial run's append order is preserved exactly). Call from a
  /// barrier or after the run.
  const std::vector<TransferEvent>& releases() const;
  const std::vector<TransferEvent>& applies() const;

  /// --- conservation accounting -----------------------------------------
  /// A grant of `watts` left a pool/server and is now in a message.
  void grant_departed(double watts) { in_flight_watts_.add(watts); }
  /// The grant arrived and was applied/banked.
  void grant_arrived(double watts) { in_flight_watts_.add(-watts); }
  /// The grant (or donation) was lost: dropped packet or dead recipient.
  void watts_stranded(double watts) {
    in_flight_watts_.add(-watts);
    stranded_watts_.add(watts);
  }
  /// A donation left a client for the central server.
  void donation_departed(double watts) { in_flight_watts_.add(watts); }
  void donation_arrived(double watts) { in_flight_watts_.add(-watts); }

  double in_flight_watts() const { return in_flight_watts_.value(); }
  double stranded_watts() const { return stranded_watts_.value(); }

  /// A redelivered copy of an already-applied message was dropped by the
  /// receiver's TxnWindow. No ledger movement: the first copy did all the
  /// accounting, and a duplicate carries no power of its own.
  void record_duplicate_drop(double watts) {
    duplicates_dropped_.inc();
    duplicate_watts_dropped_.add(watts);
  }
  std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_.value();
  }
  double duplicate_watts_dropped() const {
    return duplicate_watts_dropped_.value();
  }

  /// A grant arrived for a transaction the receiver has no record of
  /// (neither outstanding nor timed-out-stale). Its watts were stranded
  /// rather than applied.
  void record_unknown_txn() { unknown_txn_grants_.inc(); }
  std::uint64_t unknown_txn_grants() const {
    return unknown_txn_grants_.value();
  }

  /// --- membership and epoch-guarded reclamation ------------------------
  /// Watts a crashing node surrendered (cap above safe-min, drained
  /// pool). They were live — not in flight — so this only moves them
  /// into the stranded ledger, tagged (node, incarnation) so exactly one
  /// later observer can reclaim them.
  void strand_residue_against(std::int32_t node, std::uint32_t incarnation,
                              double watts) {
    if (watts <= 0.0) return;
    stranded_watts_.add(watts);
    add_reclaim_tag(node, incarnation, watts);
  }
  /// An in-flight message died against a dead node: the usual strand
  /// bookkeeping, plus the reclaim tag. Sharded runs: safe from the dead
  /// node's own shard context (the network delivers — and so drops — a
  /// node's traffic in its shard), which is the only in-window caller.
  void strand_in_flight_against(std::int32_t node,
                                std::uint32_t incarnation, double watts) {
    if (watts <= 0.0) return;
    watts_stranded(watts);
    add_reclaim_tag(node, incarnation, watts);
  }
  /// Consume the (node, incarnation) reclaim tag exactly once: the tag's
  /// watts leave the stranded ledger and the caller must put them back
  /// into circulation (a pool deposit or the server cache) atomically in
  /// sim time. Returns 0 for an unknown or already-consumed tag, which
  /// is what makes double reclamation (two peers declaring the same
  /// death, or a ghost of an old incarnation) impossible.
  double reclaim_from(std::int32_t node, std::uint32_t incarnation) {
    if (node < 0 || static_cast<std::size_t>(node) >= reclaim_tags_.size())
      return 0.0;
    auto& tags = reclaim_tags_[static_cast<std::size_t>(node)];
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (tags[i].incarnation != incarnation) continue;
      double watts = tags[i].watts;
      tags.erase(tags.begin() + static_cast<std::ptrdiff_t>(i));
      stranded_watts_.add(-watts);
      watts_reclaimed_.add(watts);
      reclaims_.inc();
      return watts;
    }
    return 0.0;
  }
  /// Watts still tagged reclaimable (subset of stranded_watts()).
  double reclaimable_watts() const {
    double sum = 0.0;
    for (const auto& tags : reclaim_tags_)
      for (const auto& tag : tags) sum += tag.watts;
    return sum;
  }
  double watts_reclaimed() const { return watts_reclaimed_.value(); }
  std::uint64_t reclaims() const { return reclaims_.value(); }

  void record_suspicion() { nodes_suspected_.inc(); }
  std::uint64_t nodes_suspected() const { return nodes_suspected_.value(); }
  void record_false_suspicion() { false_suspicions_.inc(); }
  std::uint64_t false_suspicions() const {
    return false_suspicions_.value();
  }
  void record_declared_dead() { nodes_declared_dead_.inc(); }
  std::uint64_t nodes_declared_dead() const {
    return nodes_declared_dead_.value();
  }

  /// --- federation (DESIGN.md §13) ---------------------------------------
  /// One aggregated child->parent deficit report left a pool. Carries no
  /// power, so only the message counter moves.
  void record_federated_request() { federated_requests_.inc(); }
  /// One aggregated inter-pool transfer departed; its watts ride the
  /// in-flight ledger via grant_departed like every other carrier.
  void record_federated_transfer(double watts) {
    federated_transfers_.inc();
    federated_watts_moved_.add(watts);
  }
  std::uint64_t federated_requests() const {
    return federated_requests_.value();
  }
  std::uint64_t federated_transfers() const {
    return federated_transfers_.value();
  }
  double federated_watts_moved() const {
    return federated_watts_moved_.value();
  }

  /// --- misc counters ----------------------------------------------------
  void record_request_sent() { requests_sent_.inc(); }
  std::uint64_t requests_sent() const { return requests_sent_.value(); }

  /// One decider made one control decision (a begin_step on the classic
  /// path, a node sweep action on the arena path, a central client
  /// step). The liveness watchdog compares successive readings: a run
  /// whose clock advances while this stays flat is wedged.
  void record_decider_step() { decider_steps_.inc(); }
  std::uint64_t decider_steps() const { return decider_steps_.value(); }

  /// Honest heap-sizing feedback: the most simulator events ever pending
  /// at once across the run's engines, sampled by the cluster's audit
  /// task against Simulator::pending_high_water().
  void note_pending_events_high_water(double events) {
    pending_events_high_water_.set(events);
  }
  double pending_events_high_water() const {
    return pending_events_high_water_.value();
  }

  /// --- the Penelope node core's event stream ---------------------------
  /// The sim observer: one core::ProtocolEvent from node `node` becomes
  /// the ledger, counter, journal, and flow-tracer records it stands for.
  void record_protocol_event(std::int32_t node,
                             const core::ProtocolEvent& event);

  /// --- telemetry --------------------------------------------------------
  telemetry::MetricsRegistry& registry() { return registry_; }
  const telemetry::MetricsRegistry& registry() const { return registry_; }
  telemetry::FlightRecorder& recorder() { return recorder_; }
  const telemetry::FlightRecorder& recorder() const { return recorder_; }
  telemetry::PowerFlowTracer& tracer() { return tracer_; }
  const telemetry::PowerFlowTracer& tracer() const { return tracer_; }

 private:
  /// Event-list collectors for one execution context: written only by
  /// that context's thread inside a window, merged single-threaded.
  struct EventSlot {
    std::vector<double> turnaround_ms;
    std::vector<TransferEvent> releases;
    std::vector<TransferEvent> applies;
  };

  /// Stranded watts tagged against one incarnation of a dead node.
  struct ReclaimTag {
    std::uint32_t incarnation = 0;
    double watts = 0.0;
  };

  /// Which EventSlot the calling context owns: shard s -> slot s + 1,
  /// everything else (one-shard runs, barriers, control events) -> 0.
  EventSlot& slot() {
    return slots_[sim::ShardedSimulator::current_context()];
  }

  void add_reclaim_tag(std::int32_t node, std::uint32_t incarnation,
                       double watts) {
    if (node < 0) return;
    if (static_cast<std::size_t>(node) >= reclaim_tags_.size())
      reclaim_tags_.resize(static_cast<std::size_t>(node) + 1);
    auto& tags = reclaim_tags_[static_cast<std::size_t>(node)];
    for (auto& tag : tags) {
      if (tag.incarnation == incarnation) {
        tag.watts += watts;
        return;
      }
    }
    tags.push_back(ReclaimTag{incarnation, watts});
  }

  // Registry before handles: handles point into registry cells.
  telemetry::MetricsRegistry registry_;
  telemetry::FlightRecorder recorder_;
  telemetry::PowerFlowTracer tracer_;

  std::vector<EventSlot> slots_;
  mutable std::vector<double> merged_turnaround_;
  mutable std::vector<TransferEvent> merged_releases_;
  mutable std::vector<TransferEvent> merged_applies_;
  telemetry::Histogram turnaround_hist_;
  telemetry::Counter timeouts_;
  telemetry::Gauge in_flight_watts_;
  telemetry::Gauge stranded_watts_;
  telemetry::Counter duplicates_dropped_;
  telemetry::Gauge duplicate_watts_dropped_;
  telemetry::Counter unknown_txn_grants_;
  telemetry::Counter federated_requests_;
  telemetry::Counter federated_transfers_;
  telemetry::Gauge federated_watts_moved_;
  telemetry::Counter requests_sent_;
  telemetry::Counter decider_steps_;
  telemetry::Gauge pending_events_high_water_;
  /// Reclaim tags per dead node (few incarnations outstanding at once,
  /// so a flat scan beats a map — and each node's row is touched only by
  /// contexts that may legally do so, see class comment).
  std::vector<std::vector<ReclaimTag>> reclaim_tags_;
  telemetry::Gauge watts_reclaimed_;
  telemetry::Counter reclaims_;
  telemetry::Counter nodes_suspected_;
  telemetry::Counter false_suspicions_;
  telemetry::Counter nodes_declared_dead_;
};

/// Redistribution-time analysis for the scale study (§4.5): given the
/// metrics of a completion-burst run, compute the time to shift the given
/// fraction of the burst's released power.
struct RedistributionResult {
  double available_watts = 0.0;   ///< released by burst nodes after t0
  double shifted_watts = 0.0;     ///< applied via transactions after t0
  /// Time from the burst until `fraction` of available was applied;
  /// empty if never reached within the run.
  std::optional<double> time_to_fraction_s;
};

RedistributionResult analyze_redistribution(const ClusterMetrics& metrics,
                                            common::Ticks burst_at,
                                            double fraction);

}  // namespace penelope::cluster
