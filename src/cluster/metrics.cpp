#include "cluster/metrics.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace penelope::cluster {

ClusterMetrics::ClusterMetrics()
    : registry_(telemetry::Concurrency::kSingleThread) {
  slots_.resize(1);  // one context until configure_contexts()
  turnaround_hist_ = registry_.histogram(
      "penelope_turnaround_ms", 0.0, 4000.0, 40, {},
      "request-to-grant turnaround in milliseconds");
  timeouts_ = registry_.counter("penelope_timeouts_total", {},
                                "requests resolved by timeout");
  in_flight_watts_ =
      registry_.gauge("penelope_in_flight_watts", {},
                      "watts currently owned by messages in flight");
  stranded_watts_ =
      registry_.gauge("penelope_stranded_watts", {},
                      "watts lost in flight and ledgered as stranded");
  duplicates_dropped_ =
      registry_.counter("penelope_duplicates_dropped_total", {},
                        "redeliveries rejected by a TxnWindow");
  duplicate_watts_dropped_ =
      registry_.gauge("penelope_duplicate_watts_dropped", {},
                      "watts carried by rejected redeliveries");
  unknown_txn_grants_ =
      registry_.counter("penelope_unknown_txn_grants_total", {},
                        "grants for transactions nobody tracked");
  federated_requests_ =
      registry_.counter("penelope_federated_requests_total", {},
                        "aggregated child->parent pool deficit reports");
  federated_transfers_ =
      registry_.counter("penelope_federated_transfers_total", {},
                        "aggregated inter-pool power transfers");
  federated_watts_moved_ =
      registry_.gauge("penelope_federated_watts_moved", {},
                      "watts moved by inter-pool transfers");
  requests_sent_ = registry_.counter("penelope_requests_sent_total", {},
                                     "power requests sent");
  decider_steps_ = registry_.counter(
      "penelope_decider_steps_total", {},
      "decider control decisions (liveness watchdog progress signal)");
  pending_events_high_water_ = registry_.gauge(
      "penelope_pending_events_high_water", {},
      "most simulator events pending at once across the run's engines");
  watts_reclaimed_ = registry_.gauge(
      "penelope_watts_reclaimed", {},
      "stranded watts of dead peers returned to circulation");
  reclaims_ = registry_.counter("penelope_reclaims_total", {},
                                "consumed (node, incarnation) reclaim tags");
  nodes_suspected_ =
      registry_.counter("penelope_nodes_suspected_total", {},
                        "alive->suspected detector transitions");
  false_suspicions_ = registry_.counter(
      "penelope_false_suspicions_total", {},
      "suspected/dead peers that returned at the same incarnation");
  nodes_declared_dead_ =
      registry_.counter("penelope_nodes_declared_dead_total", {},
                        "suspected->dead detector transitions");
}

void ClusterMetrics::configure_contexts(int contexts, int n_nodes) {
  PEN_CHECK(contexts >= 1 && n_nodes >= 0);
  slots_.resize(static_cast<std::size_t>(contexts));
  if (contexts > 1 &&
      static_cast<std::size_t>(n_nodes) > reclaim_tags_.size())
    reclaim_tags_.resize(static_cast<std::size_t>(n_nodes));
}

void ClusterMetrics::record_turnaround(common::Ticks sent_at,
                                       common::Ticks resolved_at) {
  PEN_CHECK(resolved_at >= sent_at);
  double ms = common::to_millis(resolved_at - sent_at);
  slot().turnaround_ms.push_back(ms);
  turnaround_hist_.observe(ms);
}

void ClusterMetrics::record_release(common::Ticks at, double watts,
                                    int node) {
  if (watts <= 0.0) return;
  slot().releases.push_back(TransferEvent{at, watts, node});
}

void ClusterMetrics::record_apply(common::Ticks at, double watts,
                                  int node) {
  if (watts <= 0.0) return;
  slot().applies.push_back(TransferEvent{at, watts, node});
}

void ClusterMetrics::record_protocol_event(
    std::int32_t node, const core::ProtocolEvent& event) {
  using telemetry::TxnEventKind;
  if (event.landed > 0.0) grant_arrived(event.landed);
  switch (event.kind) {
    case TxnEventKind::kRequestSent:
      record_request_sent();
      break;
    case TxnEventKind::kRequestServed:
      if (event.watts > 0.0) grant_departed(event.watts);
      break;
    case TxnEventKind::kGrantReceived:
    case TxnEventKind::kLateGrant:
      if (event.sent_at != core::ProtocolEvent::kNoSendTime)
        record_turnaround(event.sent_at, event.at);
      break;
    case TxnEventKind::kTimeout:
      record_timeout();
      break;
    case TxnEventKind::kApplied:
      record_apply(event.at, event.watts, node);
      break;
    case TxnEventKind::kBanked:
      record_release(event.at, event.watts, node);
      break;
    case TxnEventKind::kStranded:
      watts_stranded(event.watts);
      break;
    case TxnEventKind::kDuplicateDropped:
      record_duplicate_drop(event.watts);
      break;
    case TxnEventKind::kUnknownTxn:
      record_unknown_txn();
      break;
    case TxnEventKind::kPushSent:
      grant_departed(event.watts);
      break;
    default:
      break;
  }
  core::journal_event(recorder_, node, event);
  // Peer-to-peer grant chain: the flow is the request txn itself (one
  // hop pair, source at the server, sink where the watts apply).
  if (!tracer_.enabled() || event.txn == core::kNoTxn) return;
  if (event.kind == TxnEventKind::kRequestServed && event.watts > 0.0) {
    tracer_.record(event.at, event.txn, telemetry::FlowHopKind::kSource,
                   node, event.peer, event.watts, "grant");
  } else if (event.kind == TxnEventKind::kApplied) {
    tracer_.record(event.at, event.txn, telemetry::FlowHopKind::kSink, node,
                   event.peer, event.watts, "apply");
  }
}

const std::vector<double>& ClusterMetrics::turnaround_ms() const {
  if (slots_.size() == 1) return slots_[0].turnaround_ms;
  merged_turnaround_.clear();
  for (const auto& s : slots_)
    merged_turnaround_.insert(merged_turnaround_.end(),
                              s.turnaround_ms.begin(),
                              s.turnaround_ms.end());
  return merged_turnaround_;
}

const std::vector<TransferEvent>& ClusterMetrics::releases() const {
  if (slots_.size() == 1) return slots_[0].releases;
  merged_releases_.clear();
  for (const auto& s : slots_)
    merged_releases_.insert(merged_releases_.end(), s.releases.begin(),
                            s.releases.end());
  std::stable_sort(
      merged_releases_.begin(), merged_releases_.end(),
      [](const TransferEvent& a, const TransferEvent& b) { return a.at < b.at; });
  return merged_releases_;
}

const std::vector<TransferEvent>& ClusterMetrics::applies() const {
  if (slots_.size() == 1) return slots_[0].applies;
  merged_applies_.clear();
  for (const auto& s : slots_)
    merged_applies_.insert(merged_applies_.end(), s.applies.begin(),
                           s.applies.end());
  std::stable_sort(
      merged_applies_.begin(), merged_applies_.end(),
      [](const TransferEvent& a, const TransferEvent& b) { return a.at < b.at; });
  return merged_applies_;
}

RedistributionResult analyze_redistribution(const ClusterMetrics& metrics,
                                            common::Ticks burst_at,
                                            double fraction) {
  PEN_CHECK(fraction > 0.0 && fraction <= 1.0);
  RedistributionResult result;
  for (const auto& ev : metrics.releases()) {
    if (ev.at >= burst_at) result.available_watts += ev.watts;
  }
  if (result.available_watts <= 0.0) return result;

  // The transfer streams are in virtual-time order — appended that way
  // by a serial run, re-sorted by the merged accessor for a sharded one —
  // so a single forward scan finds the crossing.
  double target = fraction * result.available_watts;
  double cumulative = 0.0;
  for (const auto& ev : metrics.applies()) {
    if (ev.at < burst_at) continue;
    cumulative += ev.watts;
    if (!result.time_to_fraction_s && cumulative >= target - 1e-9) {
      result.time_to_fraction_s = common::to_seconds(ev.at - burst_at);
    }
  }
  result.shifted_watts = cumulative;
  return result;
}

}  // namespace penelope::cluster
