#include "core/node.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace penelope::core {

using telemetry::TxnEventKind;

PenelopeNode::PenelopeNode(const PenelopeConfig& config,
                           power::PowerInterface& power, NodeDriver& driver)
    : pool_(config.pool),
      decider_(config.decider, pool_),
      requests_(config.period),
      config_(config),
      power_(power),
      driver_(driver) {
  power_.set_cap(decider_.cap());
}

void PenelopeNode::tick(common::Ticks now, double avg_power_watts) {
  if (!alive()) return;
  // A request from the previous period that never resolved is a timeout
  // (dead peer, lost packet): Figure 3's fault tolerance comes from this
  // path — the decider just moves on.
  if (requests_.outstanding()) resolve_as_timeout(now);

  StepOutcome outcome = decider_.begin_step(avg_power_watts);
  power_.set_cap(decider_.cap());
  switch (outcome.kind) {
    case StepKind::kDepositedExcess:
      emit(TxnEventKind::kBanked, now, kNoTxn, -1, outcome.delta_watts);
      break;
    case StepKind::kTookLocal:
      emit(TxnEventKind::kApplied, now, kNoTxn, -1, outcome.delta_watts);
      break;
    case StepKind::kHeld:
      break;
    case StepKind::kNeedsPeer: {
      const PowerRequest& request = outcome.request;
      const std::int32_t peer = choose_peer(now);
      last_queried_peer_ = peer;
      emit(TxnEventKind::kRequestSent, now, request.txn_id, peer,
           request.alpha_watts);
      requests_.sent({request.txn_id, now, peer});
      if (driver_.send_request(peer, request)) {
        driver_.arm_timeout();
        return;  // the step finishes when the grant or timeout resolves it
      }
      resolve_as_timeout(now);  // refused: no answer can come
      return;
    }
  }
  finish_step(now);
}

std::int32_t PenelopeNode::choose_peer(common::Ticks now) {
  // Sticky and hinted peers are subject to the blacklist like any other
  // draw: a blacklisted sticky/hinted peer falls through to the redraw
  // path instead of eating a guaranteed-timeout probe.
  std::int32_t peer = -1;
  const std::int32_t sticky = sticky_peer_.load();
  if (config_.sticky_peers && sticky != -1 && !peer_unusable(sticky, now)) {
    peer = sticky;
  } else if (config_.hint_discovery && hinted_peer_ != -1 &&
             hinted_peer_ != id()) {
    const std::int32_t hint = hinted_peer_;
    hinted_peer_ = -1;  // hints are one-shot, even refused
    if (!peer_unusable(hint, now)) peer = hint;
  }
  if (peer == -1) {
    peer = driver_.draw_peer();
    // Skip blacklisted (or detector-dead) peers with a few bounded
    // redraws; if the whole sample comes up unusable, probe anyway (the
    // view could be stale and starving discovery entirely is worse).
    for (int attempt = 0; attempt < 4 && peer_unusable(peer, now);
         ++attempt) {
      peer = driver_.draw_peer();
    }
  }
  PEN_DCHECK(peer != id());
  return peer;
}

void PenelopeNode::on_request(common::Ticks now, std::int32_t from,
                              const PowerRequest& request) {
  if (request_window_stale_.load() && request_window_stale_.exchange(false)) {
    request_window_.reset();  // crash() asked: the window died with it
  }
  if (!alive()) return;  // no window insert: a retry deserves an answer
  // A redelivered request must not debit the pool twice (the first copy's
  // grant is the transaction's one answer; the requester dedups it too).
  if (!request_window_.insert(request.txn_id)) {
    emit(TxnEventKind::kDuplicateDropped, now, request.txn_id, from, 0.0);
    return;
  }
  const double granted = pool_.serve(request);
  emit(TxnEventKind::kRequestServed, now, request.txn_id, from, granted);
  PowerGrant grant{granted, request.txn_id};
  const std::int32_t sticky = sticky_peer_.load();
  if (config_.hint_discovery && granted <= 0.0 && sticky != -1 &&
      sticky != from) {
    // Empty-handed: refer the requester to the peer that last paid us.
    grant.hint_peer = sticky;
  }
  if (!driver_.send_grant(from, grant) && granted > 0.0) {
    // The answer never left: the watts come straight back.
    pool_.deposit(granted);
    emit(TxnEventKind::kBanked, now, request.txn_id, from, granted,
         ProtocolEvent::kNoSendTime, granted);
  }
}

void PenelopeNode::on_grant(common::Ticks now, std::int32_t from,
                            const PowerGrant& grant) {
  const double watts = grant.watts;
  // At-most-once: a redelivered grant is counted and dropped before any
  // other branch can apply, bank, or strand its watts a second time.
  // The DST planted-bug hook reverts this hardening (and the late-grant
  // in-flight decrement below) so the swarm has a real bug to find.
  if (!config_.test_revert_grant_fix &&
      !requests_.window().insert(grant.txn_id)) {
    emit(TxnEventKind::kDuplicateDropped, now, grant.txn_id, from, watts);
    return;
  }
  if (!alive()) {
    // The node went down with a request in flight: the watts would
    // strand inside a dead process; account them as lost.
    if (watts > 0.0)
      emit(TxnEventKind::kStranded, now, grant.txn_id, from, watts);
    return;
  }

  const RequestTracker::GrantMatch match = requests_.match(grant.txn_id);
  if (match.match == RequestTracker::Match::kOutstanding) {
    driver_.cancel_timeout();
    emit(TxnEventKind::kGrantReceived, now, grant.txn_id, from, watts,
         match.request.sent_at, watts > 0.0 ? watts : 0.0);
    note_peer_answered(match.request.peer);
    if (config_.sticky_peers || config_.hint_discovery) {
      sticky_peer_ = watts > 0.0 ? last_queried_peer_ : -1;
    }
    if (config_.hint_discovery && grant.hint_peer >= 0 &&
        grant.hint_peer != id()) {
      hinted_peer_ = grant.hint_peer;
    }
    if (watts > 0.0) {
      // The decider applies what fits under the safe ceiling and banks
      // the remainder in the local pool; each part is reported as what
      // it is.
      const double applied = decider_.complete_peer_grant(watts);
      power_.set_cap(decider_.cap());
      if (applied > 0.0)
        emit(TxnEventKind::kApplied, now, grant.txn_id, from, applied);
      const double banked = watts - applied;
      if (banked > common::kWattEpsilon)
        emit(TxnEventKind::kBanked, now, grant.txn_id, from, banked);
    } else {
      decider_.complete_peer_grant(0.0);
    }
    finish_step(now);
    return;
  }

  // A grant for a transaction we already gave up on (or never tracked:
  // its stale entry was evicted, or the sender is confused). The power
  // is real — the peer debited its pool — so bank it in the local pool;
  // the next hungry step takes it from there.
  const bool late = match.match == RequestTracker::Match::kLate;
  if (!late) {
    emit(TxnEventKind::kUnknownTxn, now, grant.txn_id, from, watts);
    // Rate-limited: a hostile fault schedule (or the DST planted bug)
    // can make unknown-txn grants arrive in bursts.
    PEN_LOG_WARN_RATED(64, "penelope node %d: grant for unknown txn %llu",
                       id(),
                       static_cast<unsigned long long>(grant.txn_id));
  }
  const bool lands = watts > 0.0 && !config_.test_revert_grant_fix;
  emit(TxnEventKind::kLateGrant, now, grant.txn_id, from, watts,
       late ? match.request.sent_at : ProtocolEvent::kNoSendTime,
       lands ? watts : 0.0);
  if (watts > 0.0) pool_.deposit(watts);
}

void PenelopeNode::on_push(common::Ticks now, std::int32_t from,
                           const PowerPush& push) {
  // Push-gossip deposit: the watts were withdrawn from the sender's pool;
  // they land in ours (or strand if we are down). The window check comes
  // first so a redelivered push can neither deposit nor strand its watts
  // a second time.
  if (!requests_.window().insert(push.txn_id)) {
    emit(TxnEventKind::kDuplicateDropped, now, push.txn_id, from,
         push.watts);
    return;
  }
  if (push.watts <= 0.0) return;
  if (alive()) {
    pool_.deposit(push.watts);
    emit(TxnEventKind::kPushReceived, now, push.txn_id, from, push.watts,
         ProtocolEvent::kNoSendTime, push.watts);
  } else {
    emit(TxnEventKind::kStranded, now, push.txn_id, from, push.watts);
  }
}

void PenelopeNode::on_timeout(common::Ticks now) {
  if (!requests_.outstanding() || !alive()) return;
  resolve_as_timeout(now);
}

void PenelopeNode::resolve_as_timeout(common::Ticks now) {
  const RequestTracker::Request request = requests_.expire(now);
  emit(TxnEventKind::kTimeout, now, request.txn, request.peer, 0.0);
  sticky_peer_ = -1;  // a silent peer is not worth retrying
  note_peer_timeout(request.peer, now);
  driver_.cancel_timeout();
  // The pending step resolves with nothing; the localUrgency check still
  // runs so a timed-out urgent round cannot wedge releases.
  decider_.complete_peer_grant(0.0);
  finish_step(now);
}

void PenelopeNode::finish_step(common::Ticks now) {
  const double released = decider_.finish_step();
  if (released > 0.0) {
    power_.set_cap(decider_.cap());
    emit(TxnEventKind::kBanked, now, kNoTxn, -1, released);
  }
  if (config_.push_gossip &&
      pool_.available() > config_.push_threshold_watts) {
    const double push_watts =
        pool_.withdraw(config_.push_fraction * pool_.available());
    if (push_watts > 0.0) {
      const std::int32_t peer = driver_.draw_peer();
      const std::uint64_t txn = make_txn_id(id(), 1, ++push_seq_);
      emit(TxnEventKind::kPushSent, now, txn, peer, push_watts);
      driver_.send_push(peer, PowerPush{push_watts, txn});
    }
  }
}

double PenelopeNode::crash() {
  alive_ = false;
  if (requests_.outstanding()) driver_.cancel_timeout();
  requests_.reset();
  peer_health_.clear();
  sticky_peer_ = -1;
  hinted_peer_ = -1;
  last_queried_peer_ = -1;
  request_window_stale_ = true;
  // Live power above the firmware-default safe minimum is seized: the
  // banked pool plus the cap share.
  const double residue = pool_.drain() + decider_.seize_for_restart();
  power_.set_cap(decider_.cap());
  return residue;
}

void PenelopeNode::restart(double leftover_watts) {
  alive_ = true;
  if (leftover_watts > 0.0) pool_.deposit(leftover_watts);
}

double PenelopeNode::apply_budget_delta(double delta_watts) {
  const double retired = decider_.apply_budget_delta(delta_watts);
  power_.set_cap(decider_.cap());
  return retired;
}

bool PenelopeNode::peer_blacklisted(std::int32_t peer,
                                    common::Ticks now) const {
  if (config_.blacklist_after_timeouts <= 0) return false;
  auto it = peer_health_.find(peer);
  return it != peer_health_.end() && it->second.blacklisted_until > now;
}

bool PenelopeNode::peer_unusable(std::int32_t peer,
                                 common::Ticks now) const {
  // Detector-informed avoidance: probing a declared-dead peer is a
  // guaranteed timeout until it rejoins (which flips it back to alive).
  return peer_blacklisted(peer, now) || driver_.peer_dead(peer);
}

void PenelopeNode::note_peer_timeout(std::int32_t peer, common::Ticks now) {
  if (config_.blacklist_after_timeouts <= 0 || peer == -1) return;
  PeerHealth& health = peer_health_[peer];
  if (++health.consecutive_timeouts >= config_.blacklist_after_timeouts) {
    health.blacklisted_until = now + config_.blacklist_duration;
    health.consecutive_timeouts = 0;
  }
}

void PenelopeNode::note_peer_answered(std::int32_t peer) {
  if (config_.blacklist_after_timeouts <= 0 || peer == -1) return;
  auto it = peer_health_.find(peer);
  if (it != peer_health_.end()) {
    it->second.consecutive_timeouts = 0;
    it->second.blacklisted_until = 0;
  }
}

}  // namespace penelope::core
