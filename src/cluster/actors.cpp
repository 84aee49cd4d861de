#include "cluster/actors.hpp"

#include <utility>

#include "central/protocol.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "core/protocol.hpp"

namespace penelope::cluster {

namespace {
/// Txn-id stream for membership/reclaim journal records: reclaimed
/// watts are attributable to (dead node, incarnation) straight from the
/// id, like grants are to their minting node.
constexpr std::uint32_t kMembershipStream = 2;

std::uint64_t membership_txn(std::int32_t node, std::uint32_t incarnation) {
  return core::make_txn_id(node, kMembershipStream, incarnation);
}

/// Bookkeeping for a detector signal about `peer`. kFresh is routine;
/// kStaleQuarantined is a ghost of a dead incarnation, deliberately
/// given no liveness credit and no ledger movement.
void note_signal(ClusterMetrics& metrics, common::Ticks now,
                 const core::FailureDetector& detector, net::NodeId observer,
                 std::int32_t peer, core::MembershipSignal signal) {
  if (signal == core::MembershipSignal::kRecovered) {
    // The suspected (or buried) peer is talking at the incarnation we
    // condemned: the suspicion was false. Nothing to undo — if its tag
    // was reclaimed, that consumption was exactly-once and the peer
    // readmits itself at fair share like any rejoiner.
    metrics.record_false_suspicion();
    metrics.recorder().record(
        now, membership_txn(peer, detector.incarnation(peer)),
        telemetry::TxnEventKind::kFalseSuspicion, observer, peer, 0.0);
  } else if (signal == core::MembershipSignal::kRejoined) {
    metrics.recorder().record(
        now, membership_txn(peer, detector.incarnation(peer)),
        telemetry::TxnEventKind::kPeerRejoined, observer, peer, 0.0);
  }
}

/// Count and journal one liveness transition seen by `observer`. A
/// death consumes the dead peer's (node, incarnation) reclaim tag —
/// exactly one declarer cluster-wide gets the watts — and `reclaim`
/// puts them back into circulation before they are journaled.
template <typename Reclaim>
void note_transition(ClusterMetrics& metrics, common::Ticks now,
                     net::NodeId observer,
                     const core::MembershipTransition& t,
                     Reclaim&& reclaim) {
  const std::uint64_t txn = membership_txn(t.peer, t.incarnation);
  if (t.to == core::PeerLiveness::kSuspected) {
    metrics.record_suspicion();
    metrics.recorder().record(now, txn,
                              telemetry::TxnEventKind::kPeerSuspected,
                              observer, t.peer, 0.0);
  } else if (t.to == core::PeerLiveness::kDead) {
    metrics.record_declared_dead();
    metrics.recorder().record(now, txn,
                              telemetry::TxnEventKind::kPeerDeclaredDead,
                              observer, t.peer, 0.0);
    double reclaimed = metrics.reclaim_from(t.peer, t.incarnation);
    if (reclaimed > 0.0) {
      reclaim(reclaimed);
      metrics.recorder().record(now, txn, telemetry::TxnEventKind::kReclaimed,
                                observer, t.peer, reclaimed);
    }
  }
}

/// A crashing node's live watts above the safe minimum are stranded
/// against its incarnation (live, not in flight — hence the residue
/// variant of the strand) for epoch-guarded reclamation.
void strand_crash_residue(ClusterMetrics& metrics, common::Ticks now,
                          net::NodeId node, std::uint32_t incarnation,
                          double residue) {
  if (residue <= 0.0) return;
  metrics.strand_residue_against(node, incarnation, residue);
  metrics.recorder().record(now, membership_txn(node, incarnation),
                            telemetry::TxnEventKind::kStranded, node,
                            net::kNoNode, residue);
}

/// Self-reclaim on restart: if no peer consumed this node's crash
/// residue while it was down, the tag would strand forever (peers saw it
/// return before declaring it dead), so the node takes its leftovers
/// back; the exactly-once tag makes this race-free against a
/// simultaneous declaration. Returns the watts taken back.
double self_reclaim(ClusterMetrics& metrics, common::Ticks now,
                    net::NodeId node, std::uint32_t previous) {
  double leftover = metrics.reclaim_from(node, previous);
  if (leftover > 0.0) {
    metrics.recorder().record(now, membership_txn(node, previous),
                              telemetry::TxnEventKind::kReclaimed, node,
                              node, leftover);
  }
  return leftover;
}
}  // namespace

// ---------------------------------------------------------------------------
// NodeBody

NodeBody::NodeBody(sim::Simulator& sim, const NodeConfig& config,
                   workload::WorkloadProfile profile)
    : sim_(sim),
      config_(config),
      rapl_([&] {
        power::SimulatedRaplConfig rc = config.rapl;
        rc.initial_cap_watts = config.initial_cap_watts;
        rc.initial_demand_watts = profile.phases.front().demand_watts;
        rc.seed = config.seed ^ 0x9d2c5680u;
        return rc;
      }()),
      perf_(config.perf),
      app_(std::move(profile), config.rapl.idle_watts),
      noise_rng_(config.seed ^ 0xb5297a4du) {}

double NodeBody::tick(common::Ticks now) {
  PEN_CHECK(now >= last_tick_);
  // True average power delivered since the last tick drives application
  // progress; the manager sees this value plus measurement noise.
  double avg = rapl_.read_average_power(now);
  bool was_done = app_.done();
  bool demand_changed = app_.advance(last_tick_, now, avg, perf_);
  if (demand_changed) {
    rapl_.set_demand(app_.current_demand(), now);
  }
  if (!was_done && app_.done() && !completion_reported_) {
    completion_reported_ = true;
    if (on_complete_) {
      on_complete_(config_.id, app_.completion_time().value());
    }
  }
  last_tick_ = now;
  if (config_.measurement_noise_watts > 0.0) {
    avg += noise_rng_.normal(0.0, config_.measurement_noise_watts);
    if (avg < 0.0) avg = 0.0;
  }
  return avg;
}

// ---------------------------------------------------------------------------
// FairNodeActor

FairNodeActor::FairNodeActor(sim::Simulator& sim, const NodeConfig& config,
                             workload::WorkloadProfile profile)
    : body_(sim, config, std::move(profile)),
      tick_task_(sim, config.start_offset, config.period,
                 [this](common::Ticks now) { body_.tick(now); }) {
  body_.rapl().set_cap(config.initial_cap_watts);
}

// ---------------------------------------------------------------------------
// PenelopeNodeActor

PenelopeNodeActor::PenelopeNodeActor(
    sim::Simulator& sim, net::Network& net, const NodeConfig& config,
    const core::PenelopeConfig& protocol,
    const net::SerialServerConfig& pool_service,
    workload::WorkloadProfile profile, std::function<NodeId()> pick_peer,
    ClusterMetrics& metrics)
    : sim_(sim),
      net_(net),
      body_(sim, config, std::move(profile)),
      node_(protocol, body_.rapl(), *this),
      pool_service_(
          sim,
          [&] {
            net::SerialServerConfig sc = pool_service;
            sc.seed = config.seed ^ 0x1f83d9abu;
            return sc;
          }(),
          [this](const net::Message& m) {
            node_.on_request(sim_.now(), m.src,
                             *m.as<core::PowerRequest>());
          }),
      pick_peer_(std::move(pick_peer)),
      metrics_(metrics),
      tick_task_(sim, config.start_offset, config.period,
                 [this](common::Ticks now) { on_tick(now); }) {
  PEN_CHECK(pick_peer_ != nullptr);
  PEN_CHECK(protocol.decider.txn_node == config.id);
  net_.register_endpoint(config.id,
                         [this](const net::Message& m) { on_message(m); });
  if (config.membership_enabled) {
    detector_.emplace(config.membership);
    for (NodeId peer : config.membership_peers)
      detector_->track(peer, sim_.now());
    next_heartbeat_at_ = config.start_offset;
  }
}

// The fabric owns loss; a request or grant send always leaves.
bool PenelopeNodeActor::send_request(NodeId peer,
                                     const core::PowerRequest& request) {
  net_.send(body_.config().id, peer, request);
  return true;
}

bool PenelopeNodeActor::send_grant(NodeId peer,
                                   const core::PowerGrant& grant) {
  net_.send(body_.config().id, peer, grant);
  return true;
}

void PenelopeNodeActor::send_push(NodeId peer, const core::PowerPush& push) {
  net_.send(body_.config().id, peer, push);
}

void PenelopeNodeActor::arm_timeout() {
  timeout_event_ = sim_.schedule_after(body_.config().request_timeout, [this] {
    // Cancelling a fired id is a detected no-op in the engine
    // (generation-checked); clearing it just keeps the record honest.
    timeout_event_ = sim::kInvalidEventId;
    node_.on_timeout(sim_.now());
  });
}

void PenelopeNodeActor::cancel_timeout() {
  sim_.cancel(timeout_event_);
  timeout_event_ = sim::kInvalidEventId;
}

bool PenelopeNodeActor::peer_dead(NodeId peer) const {
  return detector_ &&
         detector_->liveness(peer) == core::PeerLiveness::kDead;
}

void PenelopeNodeActor::kill_management() {
  node_.kill();
  pool_service_.halt();
  // The workload keeps running at the frozen cap; only the decision
  // plane is gone. Peer requests still arriving are dropped by the
  // halted service (empty-handed peers simply time out).
}

void PenelopeNodeActor::membership_tick(common::Ticks now) {
  if (!detector_) return;
  if (now >= next_heartbeat_at_) {
    for (NodeId peer : body_.config().membership_peers) {
      net_.send(body_.config().id, peer,
                core::Heartbeat{body_.config().id, incarnation_});
    }
    next_heartbeat_at_ = now + body_.config().membership.heartbeat_period;
  }
  transitions_.clear();
  detector_->tick(now, transitions_);
  const NodeId id = body_.config().id;
  for (const core::MembershipTransition& t : transitions_) {
    note_transition(metrics_, now, id, t, [&](double reclaimed) {
      node_.pool().deposit(reclaimed);
      metrics_.record_release(now, reclaimed, id);
    });
  }
}

void PenelopeNodeActor::crash() {
  if (crashed_) return;
  crashed_ = true;
  if (observer_dirty_) *observer_dirty_ = 1;
  pool_service_.halt();
  strand_crash_residue(metrics_, sim_.now(), body_.config().id,
                       incarnation_, node_.crash());
  net_.fail_node(body_.config().id);
}

void PenelopeNodeActor::restart() {
  if (!crashed_) return;
  crashed_ = false;
  if (observer_dirty_) *observer_dirty_ = 1;
  std::uint32_t previous = incarnation_++;
  pool_service_.resume();
  net_.recover_node(body_.config().id);
  if (detector_) {
    // The detector's peer views were volatile too: rebuild them fresh so
    // the restarted node does not instantly condemn peers it has not
    // heard from since before its own crash.
    detector_.emplace(body_.config().membership);
    for (NodeId peer : body_.config().membership_peers)
      detector_->track(peer, sim_.now());
    next_heartbeat_at_ = sim_.now();
  }
  double leftover =
      self_reclaim(metrics_, sim_.now(), body_.config().id, previous);
  node_.restart(leftover);
  metrics_.record_release(sim_.now(), leftover, body_.config().id);
}

void PenelopeNodeActor::on_message(const net::Message& msg) {
  if (detector_ && msg.src >= 0 && msg.src != body_.config().id) {
    if (const auto* beat = msg.as<core::Heartbeat>()) {
      note_signal(metrics_, sim_.now(), *detector_, body_.config().id,
                  msg.src,
                  detector_->observe_heartbeat(beat->node, beat->incarnation,
                                               sim_.now()));
      return;
    }
    // Piggybacked liveness: any protocol message proves the sender is up
    // at its last-known incarnation.
    note_signal(metrics_, sim_.now(), *detector_, body_.config().id, msg.src,
                detector_->observe_traffic(msg.src, sim_.now()));
  } else if (msg.as<core::Heartbeat>() != nullptr) {
    return;  // membership disabled here; a peer's beacon is just noise
  }
  if (msg.as<core::PowerRequest>() != nullptr) {
    // Requests contend for the pool's serial service (this is where a
    // pool being "overburdened with requests" would show up — it never
    // does, because load spreads across N pools).
    pool_service_.inbox(msg);
  } else if (const auto* grant = msg.as<core::PowerGrant>()) {
    node_.on_grant(sim_.now(), msg.src, *grant);
  } else if (const auto* push = msg.as<core::PowerPush>()) {
    node_.on_push(sim_.now(), msg.src, *push);
  } else {
    PEN_LOG_WARN("penelope node %d: unexpected payload from %d",
                 body_.config().id, msg.src);
  }
}

void PenelopeNodeActor::on_tick(common::Ticks now) {
  double measured = body_.tick(now);
  if (!node_.alive()) return;
  membership_tick(now);
  node_.tick(now, measured);
  metrics_.record_decider_step();
}

// ---------------------------------------------------------------------------
// CentralClientActor

CentralClientActor::CentralClientActor(sim::Simulator& sim,
                                       net::Network& net,
                                       const NodeConfig& config,
                                       NodeId server_id,
                                       workload::WorkloadProfile profile,
                                       ClusterMetrics& metrics,
                                       bool hierarchical)
    : sim_(sim),
      net_(net),
      body_(sim, config, std::move(profile)),
      client_(central::ClientConfig{config.initial_cap_watts,
                                    config.epsilon_watts,
                                    config.rapl.safe_range,
                                    config.id}),
      server_id_(server_id),
      metrics_(metrics),
      tick_task_(sim, config.start_offset, config.period,
                 [this](common::Ticks now) { on_tick(now); }),
      requests_(config.period),
      awaiting_assignment_(hierarchical) {
  body_.rapl().set_cap(client_.cap());
  net_.register_endpoint(
      config.id, [this](const net::Message& m) { on_message(m); });
}

void CentralClientActor::on_message(const net::Message& msg) {
  if (const auto* assignment = msg.as<hierarchy::CapAssignment>()) {
    // PoDD's top-level assignment arrived: adopt it. A cap reduction is
    // donated back immediately; a raise is claimed through the normal
    // urgency path (the node is now below its initial cap).
    awaiting_assignment_ = false;
    double give_back = client_.reassign(assignment->initial_cap_watts);
    body_.rapl().set_cap(client_.cap());
    donate(give_back, sim_.now());
    return;
  }
  on_grant(msg);
}

double CentralClientActor::apply_budget_delta(double delta_watts) {
  central::Client::BudgetDeltaResult result =
      client_.apply_budget_delta(delta_watts);
  body_.rapl().set_cap(client_.cap());
  // Share the unusable part of a budget increase through the server.
  donate(result.donate_watts, sim_.now());
  return result.retired_now;
}

void CentralClientActor::donate(double watts, common::Ticks now) {
  if (watts <= 0.0) return;
  metrics_.record_release(now, watts, body_.config().id);
  metrics_.donation_departed(watts);
  std::uint64_t txn =
      core::make_txn_id(body_.config().id, 1, ++donation_seq_);
  metrics_.recorder().record(now, txn,
                             telemetry::TxnEventKind::kDonationSent,
                             body_.config().id, server_id_, watts);
  net_.send(body_.config().id, server_id_,
            central::CentralDonation{watts, txn});
}

void CentralClientActor::expire_request() {
  if (!requests_.outstanding()) return;
  core::RequestTracker::Request request = requests_.expire(sim_.now());
  metrics_.record_timeout();
  metrics_.recorder().record(sim_.now(), request.txn,
                             telemetry::TxnEventKind::kTimeout,
                             body_.config().id, server_id_, 0.0);
  sim_.cancel(timeout_event_);
  client_.on_grant_timeout();
}

void CentralClientActor::crash() {
  if (crashed_) return;
  crashed_ = true;
  if (requests_.outstanding()) sim_.cancel(timeout_event_);
  requests_.reset();
  double residue = client_.seize_for_restart();
  body_.rapl().set_cap(client_.cap());
  // The server's detector reclaims it into the central budget (the
  // SLURM-analogue path).
  strand_crash_residue(metrics_, sim_.now(), body_.config().id,
                       incarnation_, residue);
  net_.fail_node(body_.config().id);
}

void CentralClientActor::restart() {
  if (!crashed_) return;
  crashed_ = false;
  std::uint32_t previous = incarnation_++;
  net_.recover_node(body_.config().id);
  next_heartbeat_at_ = sim_.now();
  // Self-reclaimed leftovers go straight to the server: a rejoining
  // SLURM client owns nothing beyond its cap — the budget lives
  // centrally.
  donate(self_reclaim(metrics_, sim_.now(), body_.config().id, previous),
         sim_.now());
}

void CentralClientActor::on_tick(common::Ticks now) {
  if (crashed_) {
    body_.tick(now);
    return;
  }
  if (body_.config().membership_enabled && now >= next_heartbeat_at_) {
    net_.send(body_.config().id, server_id_,
              core::Heartbeat{body_.config().id, incarnation_});
    next_heartbeat_at_ = now + body_.config().membership.heartbeat_period;
  }
  double measured = body_.tick(now);

  if (awaiting_assignment_) {
    // PoDD profiling phase: report, don't shift. The cap stays at the
    // uniform initial assignment while the server learns demands.
    net_.send(body_.config().id, server_id_,
              hierarchy::ProfileReport{measured});
    return;
  }

  expire_request();

  central::ClientStepOutcome outcome = client_.begin_step(measured);
  metrics_.record_decider_step();
  body_.rapl().set_cap(client_.cap());

  switch (outcome.kind) {
    case central::ClientStepKind::kDonate:
      donate(outcome.delta_watts, now);
      break;
    case central::ClientStepKind::kHeld:
      break;
    case central::ClientStepKind::kNeedsServer: {
      metrics_.record_request_sent();
      metrics_.recorder().record(now, outcome.request.txn_id,
                                 telemetry::TxnEventKind::kRequestSent,
                                 body_.config().id, server_id_, 0.0);
      net_.send(body_.config().id, server_id_, outcome.request);
      timeout_event_ = sim_.schedule_after(
          body_.config().request_timeout, [this] {
            timeout_event_ = sim::kInvalidEventId;
            expire_request();
          });
      requests_.sent({outcome.request.txn_id, now, server_id_});
      break;
    }
  }
}

void CentralClientActor::on_grant(const net::Message& msg) {
  const auto* grant = msg.as<central::CentralGrant>();
  if (grant == nullptr) {
    PEN_LOG_WARN("central client %d: unexpected payload",
                 body_.config().id);
    return;
  }

  // At-most-once: count and drop a redelivered grant before any branch
  // can apply it (or obey its release order) twice.
  if (!requests_.window().insert(grant->txn_id)) {
    metrics_.record_duplicate_drop(grant->watts);
    metrics_.recorder().record(sim_.now(), grant->txn_id,
                               telemetry::TxnEventKind::kDuplicateDropped,
                               body_.config().id, msg.src, grant->watts);
    return;
  }

  core::RequestTracker::GrantMatch match = requests_.match(grant->txn_id);
  if (match.match == core::RequestTracker::Match::kUnknown) {
    // A grant for a transaction this client has no record of — not
    // outstanding, not timed out. There is no legitimate sender for it
    // (the server only answers requests), so applying it would mint
    // watts on a spoofed or mis-routed message. Account its power as
    // stranded and move on.
    if (grant->watts > 0.0) {
      metrics_.watts_stranded(grant->watts);
      metrics_.recorder().record(sim_.now(), grant->txn_id,
                                 telemetry::TxnEventKind::kStranded,
                                 body_.config().id, msg.src, grant->watts);
    }
    metrics_.record_unknown_txn();
    metrics_.recorder().record(sim_.now(), grant->txn_id,
                               telemetry::TxnEventKind::kUnknownTxn,
                               body_.config().id, msg.src, grant->watts);
    PEN_LOG_WARN("central client %d: grant for unknown txn %llu "
                 "stranded (%.3f W)",
                 body_.config().id,
                 static_cast<unsigned long long>(grant->txn_id),
                 grant->watts);
    return;
  }
  const bool on_time = match.match == core::RequestTracker::Match::kOutstanding;
  if (on_time) sim_.cancel(timeout_event_);
  metrics_.record_turnaround(match.request.sent_at, sim_.now());
  metrics_.recorder().record(
      sim_.now(), grant->txn_id,
      on_time ? telemetry::TxnEventKind::kGrantReceived
              : telemetry::TxnEventKind::kLateGrant,
      body_.config().id, msg.src, grant->watts);

  if (grant->watts > 0.0) metrics_.grant_arrived(grant->watts);
  central::GrantApplication applied = client_.apply_grant(*grant);
  body_.rapl().set_cap(client_.cap());
  if (applied.applied_watts > 0.0) {
    metrics_.record_apply(sim_.now(), applied.applied_watts,
                          body_.config().id);
    metrics_.recorder().record(sim_.now(), grant->txn_id,
                               telemetry::TxnEventKind::kApplied,
                               body_.config().id, msg.src,
                               applied.applied_watts);
  }
  // Release orders (and safe-ceiling overflow) send power straight back.
  donate(applied.donate_back_watts, sim_.now());
}

// ---------------------------------------------------------------------------
// HierarchicalServerActor

HierarchicalServerActor::HierarchicalServerActor(
    sim::Simulator& sim, net::Network& net, NodeId id,
    const hierarchy::PoddConfig& config,
    const net::SerialServerConfig& service, ClusterMetrics& metrics)
    : sim_(sim),
      net_(net),
      id_(id),
      logic_(config),
      service_(sim, service,
               [this](const net::Message& m) { process(m); }),
      metrics_(metrics) {
  net_.register_endpoint(
      id_, [this](const net::Message& m) { service_.inbox(m); });
  // Queue overflow (and halt) strands donation watts — but only for the
  // transaction's first sighting. Inserting into the window here means a
  // sibling copy that did get queued is later recognised as a duplicate
  // instead of crediting watts that were already written off.
  service_.set_drop_handler([this](const net::Message& m) {
    if (const auto* donation = m.as<central::CentralDonation>()) {
      if (donation->watts <= 0.0) return;
      if (txn_window_.insert(donation->txn_id)) {
        metrics_.watts_stranded(donation->watts);
        metrics_.recorder().record(sim_.now(), donation->txn_id,
                                   telemetry::TxnEventKind::kStranded, id_,
                                   m.src, donation->watts);
      } else {
        metrics_.record_duplicate_drop(donation->watts);
        metrics_.recorder().record(
            sim_.now(), donation->txn_id,
            telemetry::TxnEventKind::kDuplicateDropped, id_, m.src,
            donation->watts);
      }
    }
  });
}

void HierarchicalServerActor::enable_membership(
    const core::MembershipConfig& config, int n_clients) {
  detector_.emplace(config);
  for (int client = 0; client < n_clients; ++client)
    detector_->track(client, sim_.now());
  detector_task_.emplace(sim_, config.heartbeat_period,
                         config.heartbeat_period,
                         [this](common::Ticks now) { membership_tick(now); });
}

void HierarchicalServerActor::membership_tick(common::Ticks now) {
  if (!alive_ || !detector_) return;
  transitions_.clear();
  detector_->tick(now, transitions_);
  for (const core::MembershipTransition& t : transitions_) {
    note_transition(metrics_, now, id_, t, [this](double reclaimed) {
      logic_.central().reclaim(reclaimed);
    });
    // A node dead mid-profiling-window must not gate the window or
    // skew the survivors' assignment with its stale draw; expiry can
    // itself close the window (everyone else already reported).
    if (t.to == core::PeerLiveness::kDead && logic_.expire_reports(t.peer))
      maybe_send_assignments();
  }
}

void HierarchicalServerActor::maybe_send_assignments() {
  if (assignments_sent_ || !logic_.profiling_complete()) return;
  assignments_sent_ = true;
  // Broadcast the learned assignments. Nodes losing cap donate back
  // first; nodes gaining cap become urgent and the embedded central
  // logic funds them greedily from those donations.
  for (int node = 0; node < logic_.config_n_nodes(); ++node) {
    net_.send(id_, node,
              hierarchy::CapAssignment{logic_.assigned_cap(node)});
  }
}

void HierarchicalServerActor::process(const net::Message& msg) {
  if (detector_ && msg.src >= 0) {
    if (const auto* beat = msg.as<core::Heartbeat>()) {
      core::MembershipSignal signal = detector_->observe_heartbeat(
          beat->node, beat->incarnation, sim_.now());
      note_signal(metrics_, sim_.now(), *detector_, id_,
                         beat->node, signal);
      // Epoch bump: the peer restarted, so anything its previous
      // incarnation reported describes a workload state that no longer
      // exists. Drop it; the fresh incarnation's reports readmit it.
      if (signal == core::MembershipSignal::kRejoined &&
          logic_.expire_reports(beat->node)) {
        maybe_send_assignments();
      }
      return;
    }
    note_signal(metrics_, sim_.now(), *detector_, id_, msg.src,
                       detector_->observe_traffic(msg.src, sim_.now()));
  } else if (msg.as<core::Heartbeat>() != nullptr) {
    return;
  }
  if (const auto* report = msg.as<hierarchy::ProfileReport>()) {
    bool still_profiling = logic_.handle_profile_report(msg.src, *report);
    if (!still_profiling && assignments_sent_) {
      // Late reporter after the window already closed (rejoined node,
      // or its CapAssignment was lost): re-send its assignment so it
      // leaves the profiling phase instead of reporting forever.
      net_.send(id_, msg.src,
                hierarchy::CapAssignment{logic_.assigned_cap(msg.src)});
      return;
    }
    maybe_send_assignments();
    return;
  }
  if (const auto* donation = msg.as<central::CentralDonation>()) {
    if (!txn_window_.insert(donation->txn_id)) {
      metrics_.record_duplicate_drop(donation->watts);
      metrics_.recorder().record(
          sim_.now(), donation->txn_id,
          telemetry::TxnEventKind::kDuplicateDropped, id_, msg.src,
          donation->watts);
      return;
    }
    metrics_.donation_arrived(donation->watts);
    metrics_.recorder().record(sim_.now(), donation->txn_id,
                               telemetry::TxnEventKind::kDonationReceived,
                               id_, msg.src, donation->watts);
    logic_.central().handle_donation(*donation);
    return;
  }
  if (const auto* request = msg.as<central::CentralRequest>()) {
    // A redelivered request gets no second grant (and debits nothing);
    // the first copy's reply is the transaction's one answer.
    if (!txn_window_.insert(request->txn_id)) {
      metrics_.record_duplicate_drop(0.0);
      metrics_.recorder().record(
          sim_.now(), request->txn_id,
          telemetry::TxnEventKind::kDuplicateDropped, id_, msg.src, 0.0);
      return;
    }
    central::CentralGrant grant = logic_.central().handle_request(*request);
    if (grant.watts > 0.0) metrics_.grant_departed(grant.watts);
    metrics_.recorder().record(sim_.now(), request->txn_id,
                               telemetry::TxnEventKind::kRequestServed, id_,
                               msg.src, grant.watts);
    net_.send(id_, msg.src, grant);
    return;
  }
  PEN_LOG_WARN("hierarchical server: unexpected payload from %d", msg.src);
}

void HierarchicalServerActor::kill() {
  if (!alive_) return;
  alive_ = false;
  service_.halt();
  net_.fail_node(id_);
}

// ---------------------------------------------------------------------------
// CentralServerActor

CentralServerActor::CentralServerActor(
    sim::Simulator& sim, net::Network& net, NodeId id,
    const central::ServerConfig& config,
    const net::SerialServerConfig& service, ClusterMetrics& metrics)
    : sim_(sim),
      net_(net),
      id_(id),
      logic_(config),
      service_(sim, service,
               [this](const net::Message& m) { process(m); }),
      metrics_(metrics) {
  net_.register_endpoint(
      id_, [this](const net::Message& m) { service_.inbox(m); });
  // Messages lost in the bounded inbox strand their watts (donations) —
  // but only on the transaction's first sighting; see
  // HierarchicalServerActor for the duplicate-copy reasoning.
  service_.set_drop_handler([this](const net::Message& m) {
    if (const auto* donation = m.as<central::CentralDonation>()) {
      if (donation->watts <= 0.0) return;
      if (txn_window_.insert(donation->txn_id)) {
        metrics_.watts_stranded(donation->watts);
        metrics_.recorder().record(sim_.now(), donation->txn_id,
                                   telemetry::TxnEventKind::kStranded, id_,
                                   m.src, donation->watts);
      } else {
        metrics_.record_duplicate_drop(donation->watts);
        metrics_.recorder().record(
            sim_.now(), donation->txn_id,
            telemetry::TxnEventKind::kDuplicateDropped, id_, m.src,
            donation->watts);
      }
    }
  });
}

void CentralServerActor::enable_membership(
    const core::MembershipConfig& config, int n_clients) {
  detector_.emplace(config);
  for (int client = 0; client < n_clients; ++client)
    detector_->track(client, sim_.now());
  detector_task_.emplace(sim_, config.heartbeat_period,
                         config.heartbeat_period,
                         [this](common::Ticks now) { membership_tick(now); });
}

void CentralServerActor::membership_tick(common::Ticks now) {
  if (!alive_ || !detector_) return;
  transitions_.clear();
  detector_->tick(now, transitions_);
  // SLURM-analogue reclamation: a dead client's seized share (and
  // anything stranded toward it) returns to the server budget.
  for (const core::MembershipTransition& t : transitions_) {
    note_transition(metrics_, now, id_, t,
                    [this](double reclaimed) { logic_.reclaim(reclaimed); });
  }
}

void CentralServerActor::process(const net::Message& msg) {
  if (detector_ && msg.src >= 0) {
    if (const auto* beat = msg.as<core::Heartbeat>()) {
      note_signal(metrics_, sim_.now(), *detector_, id_, beat->node,
                         detector_->observe_heartbeat(
                             beat->node, beat->incarnation, sim_.now()));
      return;
    }
    note_signal(metrics_, sim_.now(), *detector_, id_, msg.src,
                       detector_->observe_traffic(msg.src, sim_.now()));
  } else if (msg.as<core::Heartbeat>() != nullptr) {
    return;
  }
  if (const auto* donation = msg.as<central::CentralDonation>()) {
    if (!txn_window_.insert(donation->txn_id)) {
      metrics_.record_duplicate_drop(donation->watts);
      metrics_.recorder().record(
          sim_.now(), donation->txn_id,
          telemetry::TxnEventKind::kDuplicateDropped, id_, msg.src,
          donation->watts);
      return;
    }
    metrics_.donation_arrived(donation->watts);
    metrics_.recorder().record(sim_.now(), donation->txn_id,
                               telemetry::TxnEventKind::kDonationReceived,
                               id_, msg.src, donation->watts);
    logic_.handle_donation(*donation);
    return;
  }
  if (const auto* request = msg.as<central::CentralRequest>()) {
    if (!txn_window_.insert(request->txn_id)) {
      metrics_.record_duplicate_drop(0.0);
      metrics_.recorder().record(
          sim_.now(), request->txn_id,
          telemetry::TxnEventKind::kDuplicateDropped, id_, msg.src, 0.0);
      return;
    }
    central::CentralGrant grant = logic_.handle_request(*request);
    if (grant.watts > 0.0) metrics_.grant_departed(grant.watts);
    metrics_.recorder().record(sim_.now(), request->txn_id,
                               telemetry::TxnEventKind::kRequestServed, id_,
                               msg.src, grant.watts);
    net_.send(id_, msg.src, grant);
    return;
  }
  PEN_LOG_WARN("central server: unexpected payload from %d", msg.src);
}

void CentralServerActor::kill() {
  if (!alive_) return;
  alive_ = false;
  // Order matters: halting the service strands queued donations through
  // the drop handler; failing the node makes the network strand
  // everything already in flight toward it on arrival.
  service_.halt();
  net_.fail_node(id_);
}

}  // namespace penelope::cluster
