// The Penelope node core: one node's whole protocol as a sans-IO state
// machine, shared by every driver — the discrete-event actor, the
// in-process ThreadCluster, the UDP node, and the overhead harness
// (DESIGN.md §2a). It owns the PowerPool and Decider (Algorithms 2 and
// 1), both at-most-once receive windows, the outstanding request and
// its stale map, peer choice, push gossip, and the alive flag. Drivers
// keep only their transport, their clocks, and their own fault model.
//
// Sans-IO: the core does no I/O and reads no clock. Every input carries
// `now`; caps go out through a power::PowerInterface (§3.3); sends,
// the request timer, and one ProtocolEvent stream go out through the
// NodeDriver, in exactly the order the protocol performs them — the sim
// driver's latency draws and timer sequence numbers depend on it.
//
// Threads: on_request is the *request side*. It touches only the
// request window and the mutex-guarded pool (and reads the atomic
// alive flag and sticky peer), so a driver may run it on its own
// pool-service thread. Every other entry point is the *decider side*
// and must stay on one thread. crash() cannot reset the request window
// from the decider side; it flags it, and the next on_request resets it.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "common/units.hpp"
#include "core/decider.hpp"
#include "core/pool.hpp"
#include "core/protocol.hpp"
#include "core/request_tracker.hpp"
#include "core/txn_window.hpp"
#include "power/power_interface.hpp"
#include "telemetry/flight_recorder.hpp"

namespace penelope::core {

/// The Penelope-specific knobs: Algorithms 1 and 2, plus the discovery,
/// fault-tolerance, and gossip extensions of DESIGN.md §5.
struct PenelopeConfig {
  /// Algorithm 1; decider.txn_node is this node's id.
  DeciderConfig decider;
  /// Algorithm 2.
  PoolConfig pool;
  /// Control period; timed-out requests are forgotten after
  /// RequestTracker::kStaleHorizonPeriods of them.
  common::Ticks period = common::kTicksPerSecond;
  /// Peer-discovery ablation: remember the last peer that granted power
  /// and retry it while it keeps paying out, instead of sampling
  /// uniformly every time.
  bool sticky_peers = false;
  /// Peer-discovery extension: empty-handed pools forward a hint (their
  /// own last-successful peer) and requesters follow it on their next
  /// probe. Composes with uniform random (hints expire after one use).
  bool hint_discovery = false;
  /// Fault-tolerance refinement: after this many *consecutive* timeouts
  /// from the same peer, stop probing it for blacklist_duration (a dead
  /// node otherwise keeps eating one probe period per unlucky draw).
  /// 0 disables blacklisting.
  int blacklist_after_timeouts = 0;
  common::Ticks blacklist_duration = 30 * common::kTicksPerSecond;
  /// Push-gossip extension: when the local pool exceeds the threshold
  /// at the end of a step, push `push_fraction` of it to a uniformly
  /// random peer's pool. The dual of the paper's pull discovery —
  /// excess diffuses instead of waiting to be found.
  bool push_gossip = false;
  double push_threshold_watts = 20.0;
  double push_fraction = 0.25;
  /// TEST HOOK (DST planted bug): revert the grant hardening —
  /// duplicate grants bypass the dedup window and late grants deposit
  /// into the pool without leaving the in-flight ledger, minting watts.
  /// Never enable outside the fault-schedule explorer's self-test.
  bool test_revert_grant_fix = false;
};

/// One entry of the core's protocol-event stream, in the flight
/// journal's vocabulary. Drivers map it onto their own telemetry; see
/// journal_event() for the journal records an event stands for.
///
/// An event with txn == kNoTxn is a local watt move, not a transaction:
/// kBanked for the decider's own deposits (excess, localUrgency
/// release) and kApplied for a local pool take.
struct ProtocolEvent {
  static constexpr common::Ticks kNoSendTime = -1;

  telemetry::TxnEventKind kind = telemetry::TxnEventKind::kRequestSent;
  common::Ticks at = 0;
  std::uint64_t txn = kNoTxn;
  /// The other endpoint (-1 if none or unknown).
  std::int32_t peer = -1;
  /// kRequestSent: the urgent deficit alpha; otherwise the watts moved.
  double watts = 0.0;
  /// kGrantReceived / kLateGrant: when the answered request left, so
  /// the driver can sample turnaround; kNoSendTime when unknown.
  common::Ticks sent_at = kNoSendTime;
  /// Watts that stop being in flight with this event (a grant or push
  /// arrived and the watts are now live here).
  double landed = 0.0;
};

/// Write the flight-journal records `event` stands for: none for a
/// local move, otherwise the event itself — plus, for a late grant, the
/// kBanked record of its watts (a late grant is always banked).
inline void journal_event(telemetry::FlightRecorder& recorder,
                          std::int32_t node, const ProtocolEvent& event) {
  if (event.txn == kNoTxn) return;  // a local move, not a transaction
  recorder.record(event.at, event.txn, event.kind, node, event.peer,
                  event.watts);
  if (event.kind == telemetry::TxnEventKind::kLateGrant &&
      event.watts > 0.0) {
    recorder.record(event.at, event.txn, telemetry::TxnEventKind::kBanked,
                    node, event.peer, event.watts);
  }
}

/// What the core needs from its driver. Request-side calls (send_grant,
/// on_event) may arrive on the request-side thread.
class NodeDriver {
 public:
  /// Both return false if the transport refused the message outright
  /// (an rt mailbox full or closed, a failed sendto). A refused request
  /// times out at once; a refused grant's watts are banked, not lost.
  virtual bool send_request(std::int32_t peer,
                            const PowerRequest& request) = 0;
  virtual bool send_grant(std::int32_t peer, const PowerGrant& grant) = 0;
  virtual void send_push(std::int32_t peer, const PowerPush& push) = 0;
  /// Start the timer for the request just sent; when it fires, call
  /// on_timeout(). At most one is ever armed.
  virtual void arm_timeout() = 0;
  virtual void cancel_timeout() = 0;
  /// A uniformly random peer (never this node).
  virtual std::int32_t draw_peer() = 0;
  /// Whether the driver's failure detector has declared `peer` dead.
  virtual bool peer_dead(std::int32_t /*peer*/) const { return false; }
  virtual void on_event(const ProtocolEvent& event) = 0;

 protected:
  ~NodeDriver() = default;
};

class PenelopeNode {
 public:
  /// Sets the initial cap on `power`.
  PenelopeNode(const PenelopeConfig& config, power::PowerInterface& power,
               NodeDriver& driver);

  PenelopeNode(const PenelopeNode&) = delete;
  PenelopeNode& operator=(const PenelopeNode&) = delete;

  // --- decider side ------------------------------------------------------

  /// One control period: resolve a request left over from the previous
  /// period as a timeout, then run Algorithm 1 on `avg_power_watts`.
  /// Does nothing while the node is down.
  void tick(common::Ticks now, double avg_power_watts);
  void on_grant(common::Ticks now, std::int32_t from,
                const PowerGrant& grant);
  void on_push(common::Ticks now, std::int32_t from, const PowerPush& push);
  /// The request timer fired (a no-op if nothing is outstanding).
  void on_timeout(common::Ticks now);

  /// Crash: volatile protocol state dies (both windows, the outstanding
  /// request and stale map, discovery caches) and the node goes down at
  /// the safe-minimum cap. Returns the residue — the banked pool plus
  /// the cap share above the safe minimum — for the driver's ledger.
  double crash();
  /// Rejoin: the node is up again with `leftover_watts` (the crash
  /// residue nobody reclaimed) deposited in its fresh pool.
  void restart(double leftover_watts);
  /// Management-plane death: the node stops deciding and serving but
  /// keeps its state and cap frozen.
  void kill() { alive_ = false; }

  /// Dynamic budget reconfiguration: adjust this node's share. Returns
  /// the watts retired immediately (cut) — the rest becomes debt.
  double apply_budget_delta(double delta_watts);

  /// Operational/test control: refuse to probe `peer` until `until`, as
  /// if it had accumulated the configured consecutive timeouts.
  void force_peer_blacklist(std::int32_t peer, common::Ticks until) {
    peer_health_[peer].blacklisted_until = until;
  }

  // --- request side ------------------------------------------------------

  /// Serve a peer's request from the pool (Algorithm 2) and answer it.
  void on_request(common::Ticks now, std::int32_t from,
                  const PowerRequest& request);

  // --- state -------------------------------------------------------------

  bool alive() const { return alive_; }
  bool awaiting_grant() const { return requests_.outstanding().has_value(); }
  std::uint64_t outstanding_txn() const { return requests_.outstanding_txn(); }
  std::size_t stale_entries() const { return requests_.stale_entries(); }
  double cap() const { return decider_.cap(); }
  const Decider& decider() const { return decider_; }
  PowerPool& pool() { return pool_; }
  const PowerPool& pool() const { return pool_; }

  /// Observability: every cap/debt/pool mutation writes 1 to `cell`.
  void set_observer_dirty(std::uint8_t* cell) {
    decider_.set_observer_dirty(cell);
    pool_.set_observer_dirty(cell);
  }

 private:
  struct PeerHealth {
    int consecutive_timeouts = 0;
    common::Ticks blacklisted_until = 0;
  };

  std::int32_t id() const { return config_.decider.txn_node; }
  void emit(telemetry::TxnEventKind kind, common::Ticks now,
            std::uint64_t txn, std::int32_t peer, double watts,
            common::Ticks sent_at = ProtocolEvent::kNoSendTime,
            double landed = 0.0) {
    driver_.on_event(
        ProtocolEvent{kind, now, txn, peer, watts, sent_at, landed});
  }
  void resolve_as_timeout(common::Ticks now);
  void finish_step(common::Ticks now);
  std::int32_t choose_peer(common::Ticks now);
  bool peer_blacklisted(std::int32_t peer, common::Ticks now) const;
  bool peer_unusable(std::int32_t peer, common::Ticks now) const;
  void note_peer_timeout(std::int32_t peer, common::Ticks now);
  void note_peer_answered(std::int32_t peer);

  PowerPool pool_;
  Decider decider_;
  /// Decider side: the outstanding request, the stale map, and the
  /// window over grants and pushes.
  RequestTracker requests_;
  /// Request side: the window over incoming requests.
  TxnWindow request_window_;
  /// sticky_peers: the last peer whose grant paid out. Atomic because
  /// hint_discovery also reads it on the request side.
  std::atomic<std::int32_t> sticky_peer_{-1};
  std::int32_t last_queried_peer_ = -1;
  /// hint_discovery: a one-shot referral received in an empty grant.
  std::int32_t hinted_peer_ = -1;
  std::unordered_map<std::int32_t, PeerHealth> peer_health_;
  std::uint64_t push_seq_ = 0;  ///< stream-1 sequence for PowerPush txns
  std::atomic<bool> alive_{true};
  /// Set by crash(); the request side resets its window when it sees it.
  std::atomic<bool> request_window_stale_{false};
  PenelopeConfig config_;
  power::PowerInterface& power_;
  NodeDriver& driver_;
};

}  // namespace penelope::core
