// Deterministic discrete-event simulator.
//
// The paper's scale study (§4.5) replaces hardware with curated power
// profiles and simulated deciders; this engine is the equivalent
// substrate here. Virtual time is integer microseconds, events at equal
// timestamps execute in scheduling order (a monotone sequence number
// breaks ties), and all randomness comes from seeded common::Rng streams,
// so a run is a pure function of its configuration.
//
// The engine itself is single-threaded: determinism and the ability to
// simulate 1000+ nodes on one core matter more here than parallel
// speedup, and the protocol logic it drives is shared with the rt::
// runtime which does exercise real concurrency. Parallel single-run
// execution is layered on top, not inside: sim/sharded.hpp runs K of
// these engines in conservative time windows with a deterministic
// cross-shard merge (DESIGN.md §12), leaving this hot loop lock-free.
//
// Implementation: sim/timer_heap.hpp, ordered by (timestamp, sequence).
// One-shot events due within TimerHeap::kRingTicks of the last fired
// time go to a calendar ring of one-tick FIFO buckets — O(1) insert,
// pop and cancel, which is where message deliveries land — and the rest
// (periodic timers, request timeouts) to an indexed 4-ary min-heap with
// a true O(log n) cancel. Every pop takes the lesser of the two fronts,
// so the order is exactly a single heap's. Callbacks are sim::EventFn
// (sim/event_fn.hpp): move-only with 72 bytes of inline storage, so
// scheduling a lambda that captures `this` and a few scalars (or a
// whole net::Message) never touches the allocator, and events are moved
// (never copied) out of the queue when they fire. Periodic timers are
// native: the engine re-arms a fired periodic event by resetting its
// heap key in place, reusing the same closure and EventId across
// firings.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/event_fn.hpp"
#include "sim/timer_heap.hpp"

namespace penelope::sim {

using common::Ticks;

/// Sentinel returned by Simulator::next_event_at() on an empty queue:
/// later than any schedulable time, so min() folds over shards stay
/// branch-free.
inline constexpr Ticks kNoPendingEvent = std::numeric_limits<Ticks>::max();

/// One executed event's contribution to the trace hash: a splitmix64-
/// style finalizer of the event's timestamp. The full hash is the
/// wrapping sum of these mixes, which makes it order-insensitive across
/// equal work partitions — the property that lets sharded execution
/// (sim/sharded.hpp) merge per-shard hashes into exactly the value a
/// serial run produces, and that turns the per-event fold from a
/// loop-carried multiply chain into one independent add.
constexpr std::uint64_t trace_mix(std::uint64_t at) {
  at ^= at >> 33;
  at *= 0xff51afd7ed558ccdULL;
  at ^= at >> 33;
  at *= 0xc4ceb9fe1a85ec53ULL;
  at ^= at >> 33;
  return at;
}

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Ticks now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now). Returns an id usable
  /// with cancel(). `fn` is any callable taking () or (Ticks fired_at).
  EventId schedule_at(Ticks at, EventFn fn);

  /// Schedule `fn` after a relative delay (>= 0).
  EventId schedule_after(Ticks delay, EventFn fn);

  /// Schedule `fn` to run at `first_at`, then every `period` (> 0) until
  /// cancelled. The same closure and EventId serve every firing: no
  /// per-firing allocation or re-scheduling cost beyond one heap re-key.
  /// Re-arming happens after the callback returns, from the *scheduled*
  /// firing time, so periods never drift and a cancel() from inside the
  /// callback sticks.
  EventId schedule_periodic(Ticks first_at, Ticks period, EventFn fn);

  /// Like schedule_periodic, but every firing sorts *before* any normal
  /// event at the same timestamp (sequence numbers come from a reserved
  /// low band, re-arms included). This is the serial-engine mirror of the
  /// sharded rule that control events run before same-timestamp shard
  /// events: a control-plane observer scheduled this way sees identical
  /// state at a tick boundary whether the run is serial or sharded.
  /// Intended for read-mostly observers (telemetry samplers); events that
  /// drive protocol state should use the normal lane.
  EventId schedule_periodic_pre(Ticks first_at, Ticks period, EventFn fn);

  /// The sweep lane: a periodic event that (a) sorts after every pre
  /// event and before every normal event at the same timestamp, and
  /// (b) is *trace-neutral* — firings bump neither executed_events()
  /// nor trace_hash(). This exists for batched epoch sweeps (one event
  /// per engine walking a column range, cluster/arena.*): the sweep is
  /// an execution strategy, not a protocol event, and a serial run
  /// schedules one of them where a K-shard run schedules K. Counting
  /// them would make the trace depend on the engine shape, breaking the
  /// bit-identical-at-any-sim_jobs contract; everything the sweep *does*
  /// (sends, timeouts, completions) still lands in the trace through the
  /// events it causes. The lane position gives the deterministic
  /// tie-break both engines need: observers (pre/control) see pre-sweep
  /// state, and deliveries at the sweep's timestamp (normal lane) run
  /// after it, in every engine.
  EventId schedule_periodic_sweep(Ticks first_at, Ticks period, EventFn fn);

  /// Change a periodic event's period for re-arms after the next firing
  /// (the already-armed firing keeps its time). When called from inside
  /// the event's own callback the re-arm has not happened yet, so the
  /// new period takes effect at the very next firing. Returns false if
  /// `id` is not pending or names a one-shot event (a one-shot cannot
  /// be promoted to periodic). PeriodicTask is the RAII wrapper over
  /// this.
  bool set_period(EventId id, Ticks period);

  /// Cancel a pending event: a true delete (O(1) for a ring event,
  /// O(log n) for a heap one), effective immediately. Safe to call with
  /// ids that already fired, were already cancelled, or are
  /// kInvalidEventId — those return without effect.
  void cancel(EventId id);

  /// Preallocate room for `n` concurrently pending events; schedule and
  /// cancel churn below that bound never allocates.
  void reserve(std::size_t n) { heap_.reserve(n); }

  /// Run until the event queue drains or `stop()` is called.
  void run();

  /// Run events with time <= deadline; afterwards now() == deadline if
  /// the queue outlived it (further events remain pending).
  void run_until(Ticks deadline);

  /// Conservative-window execution primitive for sharded mode: run every
  /// pending event with time strictly below `end`, including events those
  /// events schedule inside the window. Unlike run_until it neither
  /// advances now() to the boundary nor touches the stop flag — now()
  /// stays at the last executed event so the next window can start
  /// wherever the global frontier says.
  void run_window(Ticks end);

  /// Timestamp of the earliest pending event, or kNoPendingEvent when
  /// the queue is empty. The sharded engine polls this to pick the next
  /// window's start.
  Ticks next_event_at() const {
    return heap_.empty() ? kNoPendingEvent : heap_.min_at();
  }

  /// Move now() forward without executing anything. Legal only when no
  /// pending event precedes `t` — the sharded engine uses it to land
  /// quiescent shards on a control-event or deadline timestamp so code
  /// reached from there sees the same clock a serial run would.
  void advance_to(Ticks t) {
    PEN_CHECK(t >= now_);
    PEN_DCHECK(heap_.empty() || heap_.min_at() >= t);
    now_ = t;
    heap_.advance(t);
  }

  /// Execute at most `n` events; returns the number actually executed.
  std::size_t run_steps(std::size_t n);

  /// Request that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  bool stopped() const { return stopped_; }

  /// Pending event count. Exact: cancelled events are deleted on the
  /// spot and never counted.
  std::size_t pending_events() const { return heap_.size(); }

  /// Most events ever pending at once — the honest number to feed back
  /// into reserve() sizing for the next run of the same shape.
  std::size_t pending_high_water() const { return pending_high_water_; }

  /// Total events executed since construction.
  std::uint64_t executed_events() const { return executed_; }

  /// Wrapping sum of trace_mix(timestamp) over every executed event:
  /// the multiset of executed timestamps, mergeable across shards. It
  /// is order-insensitive, so it cannot see two events that share a
  /// tick swap places. That order is pinned elsewhere: directly by the
  /// TimerHeapRing differential tests (tests/sim/timer_heap_test.cpp)
  /// and the order-sensitive TxnRecord hash of LossyRunTelemetryIsPinned,
  /// and through its effects by the DST outcome_hash (swapped handlers
  /// draw latencies in another order, which moves later timestamps). The
  /// golden-trace tests pin this hash across engine rewrites.
  std::uint64_t trace_hash() const { return trace_hash_; }

 private:
  /// Sequence-number bands, one per lane. At equal timestamps the lanes
  /// sort pre < sweep < normal: pre is [1, kFirstSweepSeq), sweep is
  /// [kFirstSweepSeq, kFirstNormalSeq), normal is kFirstNormalSeq and
  /// up. Only the relative order within a lane matters, so carving the
  /// sweep band out of the (never remotely exhausted) pre band leaves
  /// every existing schedule bit-for-bit unchanged.
  static constexpr std::uint64_t kFirstSweepSeq = std::uint64_t{1} << 31;
  static constexpr std::uint64_t kFirstNormalSeq = std::uint64_t{1} << 32;

  /// Pop and execute the earliest event if it is due at or before
  /// `limit`; false when there is none.
  bool pop_and_run_next(Ticks limit);

  Ticks now_ = 0;
  std::uint64_t next_seq_ = kFirstNormalSeq;
  std::uint64_t next_pre_seq_ = 1;
  std::uint64_t next_sweep_seq_ = kFirstSweepSeq;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t trace_hash_ = 0;
  std::size_t pending_high_water_ = 0;
  TimerHeap heap_;
};

/// Repeating task helper: runs `fn` every `period` starting at
/// `first_at`, until cancelled or the owner is destroyed. The callback
/// receives the firing time; it may cancel() the task (no further
/// firings) or set_period() it — re-arming happens after the callback
/// returns, so a period change made inside the callback applies to the
/// very next firing, while one made between firings leaves the
/// already-armed next firing in place and applies from the one after.
///
/// Tie-break lane for PeriodicTask: kNormal events order by scheduling
/// sequence among equal timestamps; kPre events run before any normal
/// event at the same timestamp (see Simulator::schedule_periodic_pre);
/// kSweep events run between the two and are trace-neutral (see
/// Simulator::schedule_periodic_sweep).
enum class TaskOrder { kNormal, kPre, kSweep };

/// Thin RAII wrapper over Simulator::schedule_periodic: one engine-side
/// timer serves every firing, with no per-firing closure construction.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, Ticks first_at, Ticks period,
               std::function<void(Ticks)> fn,
               TaskOrder order = TaskOrder::kNormal);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void cancel();
  bool active() const { return active_; }
  Ticks period() const { return period_; }

  /// Change the period: from inside the callback, effective at the next
  /// firing; between firings, the pending firing keeps its time and the
  /// new spacing applies after it (see Simulator::set_period).
  void set_period(Ticks period);

 private:
  Simulator& sim_;
  Ticks period_;
  EventId id_ = kInvalidEventId;
  bool active_ = true;
};

}  // namespace penelope::sim
