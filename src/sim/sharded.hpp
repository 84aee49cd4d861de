// Parallel single-run execution: K independent Simulator shards advanced
// in conservative time windows (DESIGN.md §12).
//
// The classic conservative-PDES argument (the same one SimGrid's parallel
// mode rests on): if every cross-shard interaction takes at least
// `lookahead` ticks of virtual time to arrive — here, net::Network's
// fixed one-way latency floor — then all events in
// [frontier, frontier + lookahead) are causally independent across
// shards and can execute concurrently. The engine loop repeats:
//
//   1. drain barrier posts (deterministic cross-shard handoffs),
//   2. run barrier hooks (the network flushes staged sends, in canonical
//      (arrival, message-id, duplicate) order, into destination heaps),
//   3. let the control-plane Simulator run if its next event is due
//      before any shard's (faults, churn, audits, trace sampling — all
//      cluster-global mutations happen here, single-threaded, with every
//      shard quiescent),
//   4. otherwise execute one window: every shard runs its events in
//      [min over shards of next_event_at(), that minimum + lookahead),
//      in parallel on a persistent worker pool.
//
// Determinism contract: a run's merged (executed_events, trace_hash) is
// bit-identical for any shard count K — the window boundary sequence
// depends only on event timestamps (not K), every send at K >= 2 is
// staged and flushed in an order independent of shard layout, and
// Simulator's trace hash is an order-insensitive sum so per-shard hashes
// merge exactly (and equal the one-shard engine's).
//
// Threading: shard s is pinned to worker s-1 (shard 0 runs on the
// caller's thread); workers park on a condition variable between windows
// and synchronize through an acquire/release epoch counter, so everything
// a window writes happens-before the barrier and everything the barrier
// writes happens-before the next window. Windows with at most one active
// shard run inline on the caller's thread — sparse regions of virtual
// time cost no wakeups.
//
// One shard is the serial engine, not a degenerate window loop: with
// K == 1 there is a single heap, control() and shard(0) are the same
// Simulator, post_to_barrier runs its post inline, stop() halts after
// the current event, and run_until delegates to the heap. Equal-tick
// events therefore run in scheduling order, exactly as one Simulator
// runs them, and nothing is staged (net::Network schedules directly).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace penelope::sim {

namespace detail {
/// Which shard's window the calling thread is executing; -1 outside any
/// window (barrier, control events, the main thread between runs, and
/// always with one shard). Inline so the per-message context lookups
/// compile to one load.
inline thread_local int t_current_shard = -1;
}  // namespace detail

class ShardedSimulator {
 public:
  /// `shards` >= 1 event heaps executed by as many threads; `lookahead`
  /// >= 1 is the conservative window width (the network latency floor,
  /// unused at one shard).
  ShardedSimulator(int shards, Ticks lookahead);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int shards() const { return static_cast<int>(shards_.size()); }
  Ticks lookahead() const { return lookahead_; }

  /// Shard s's engine. Schedule into it only from its own window context
  /// or from a barrier (posts, hooks, control events).
  Simulator& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  const Simulator& shard(int s) const {
    return *shards_[static_cast<std::size_t>(s)];
  }

  /// The control-plane engine: its events run single-threaded at window
  /// boundaries, strictly before any shard event with an equal or later
  /// timestamp. Cluster-global mutations (faults, churn, audits) belong
  /// here. With one shard it is shard(0).
  Simulator& control() { return *control_; }
  const Simulator& control() const { return *control_; }

  /// Execution contexts whose mutable state must stay apart: 1 with one
  /// shard (everything runs on the caller's thread), otherwise K shard
  /// windows plus the barrier/control context.
  int contexts() const { return shards() > 1 ? shards() + 1 : 1; }

  /// The calling context's index in [0, contexts()): shard s's window is
  /// s + 1, the barrier/control context (and the one-shard engine) is 0.
  /// The network and metrics layers use it to pick their state slot.
  static std::size_t current_context() {
    return static_cast<std::size_t>(detail::t_current_shard + 1);
  }

  /// Global frontier: every event strictly below now() has executed.
  /// Inside a window or control callback, prefer context_now().
  Ticks now() const { return solo_ != nullptr ? solo_->now() : now_; }

  /// The executing context's virtual time: the current shard's now()
  /// inside a window, the control engine's inside a control event, the
  /// global frontier otherwise. With one shard, that heap's clock.
  Ticks context_now() const {
    return solo_ != nullptr ? solo_->now() : windowed_context_now();
  }

  /// Run `fn` at the next barrier, single-threaded, before anything else
  /// in that barrier. Callable from window context; the relative order
  /// of posts from different shards follows shard index, so commutative
  /// uses (completion bookkeeping, stop requests) stay K-invariant. With
  /// one shard every event is already single-threaded: `fn` runs inline.
  void post_to_barrier(std::function<void()> fn);

  /// Hook run at every barrier after posts, in registration order. The
  /// network registers its staged-send flush here. Multi-shard only: a
  /// one-shard engine has no barriers.
  void add_barrier_hook(std::function<void()> hook);

  /// Advance until every heap (shards + control) is past `deadline`, or
  /// stop() was honoured. now() == deadline afterwards unless stopped.
  void run_until(Ticks deadline);

  /// Request run_until to return. With one shard it returns right after
  /// the current event; otherwise at the next barrier. Callable from a
  /// barrier post or control event; from window context, route it
  /// through post_to_barrier so the request lands deterministically.
  void stop() {
    if (solo_ != nullptr) {
      solo_->stop();
    } else {
      stop_requested_ = true;
    }
  }
  bool stopped() const {
    return solo_ != nullptr ? solo_->stopped() : stopped_;
  }

  /// Preallocate `per_shard` pending-event slots in every shard heap and
  /// `control` in the separate control heap (there is none at one shard).
  void reserve(std::size_t per_shard, std::size_t control = 0);

  /// Merged views over all shards plus the control engine. Because the
  /// per-engine trace hash is an order-insensitive sum, the merged hash
  /// equals what one serial engine executing the same event multiset
  /// reports.
  std::uint64_t trace_hash() const;
  std::uint64_t executed_events() const;
  std::size_t pending_events() const;
  std::size_t pending_high_water() const;

 private:
  Ticks windowed_context_now() const;
  template <typename Fn>
  void for_each_heap(Fn fn) const;
  void run_shards_window(Ticks end);
  void start_workers();
  void worker_loop(int worker);
  void drain_posts();

  std::vector<std::unique_ptr<Simulator>> shards_;
  /// The separate control heap; null with one shard, where control()
  /// is shard(0).
  std::unique_ptr<Simulator> own_control_;
  Simulator* control_ = nullptr;
  /// The lone heap when shards() == 1, else null: the one-shard rules
  /// (aliased control, inline posts, immediate stop, delegating
  /// run_until) all key off it.
  Simulator* solo_ = nullptr;
  Ticks lookahead_;
  Ticks now_ = 0;
  bool stop_requested_ = false;
  bool stopped_ = false;
  /// Per-context post queues (shard rows 0..K-1, barrier/control row K):
  /// each row is written only by its own context, drained single-threaded
  /// at the barrier in row order.
  std::vector<std::vector<std::function<void()>>> posts_;
  std::vector<std::function<void()>> barrier_hooks_;

  // Worker pool (started lazily at the first multi-shard window).
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> done_count_{0};
  bool shutdown_ = false;
  Ticks window_end_ = 0;  ///< published before the epoch bump
};

}  // namespace penelope::sim
