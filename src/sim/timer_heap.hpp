// Indexed d-ary min-heap of timers: the data structure behind
// sim::Simulator.
//
// Three properties the engine needs and std::priority_queue cannot give:
//
//   * true-delete cancel() in O(log n): cancelling the request/timeout
//     pairs that dominate Penelope runs removes the event immediately —
//     no tombstone set, no cancelled-head skip loop, and
//     pending-event counts are exact;
//   * events are *moved* out when they fire (priority_queue::top is
//     const, forcing a copy of the callback);
//   * periodic timers re-arm by resetting the fired node's key in place
//     (one sift from its current slot) under a stable EventId, instead
//     of freeing the node and constructing a fresh closure per firing.
//
// Layout: callbacks and bookkeeping live in a slab addressed by 32-bit
// slot with a freelist; the heap itself (`heap_`) is an array of 24-byte
// (at, seq, slot) entries, so every sift comparison reads contiguous
// heap memory — never the slab — and sifts move 24 bytes, not 80-byte
// events. The slab is structure-of-arrays (`pos_`, `slots_`, `fn_`):
// each sift step must write the moved entry's new heap position
// back to its slot, and with a dense u32 `pos_` array that store lands
// in a small hot region instead of dirtying a random 80-byte-stride
// node — and slab growth memmoves three POD arrays plus memcpy-relocated
// EventFns instead of move-constructing fat structs. The per-slot heap
// position is what makes cancel-by-id O(log n). EventIds are
// (generation << 32 | slot): a slot's generation bumps every time it is
// freed, so cancelling an id that already fired — or that was recycled
// for a newer event — is detected and refused instead of deleting a
// stranger.
//
// 4-ary beats binary here: the hot cost is pop-min's sift-down, and a
// 4-ary heap halves its depth while the four sibling keys it compares
// sit in ~1.5 cache lines of heap_. Pops use Floyd's hole scheme (push
// the hole to a leaf, then bubble the displaced last entry up) because
// the displaced entry is almost always leaf-sized — this saves the
// per-level "is the replacement smaller?" compare of the classic pop,
// and the min-child selection is branch-free (heap comparisons are
// data-dependent coin flips; conditional moves don't mispredict).
//
// Drain run: popping n events through a heap costs n log n comparisons
// served one root-removal at a time. When a drain begins against a
// batch of already-scheduled one-shot events (the schedule-then-run
// shape of every sim loop), fire_top() instead sorts those entries
// *once* into `run_` — std::sort over 24-byte PODs is several times
// cheaper per element than the equivalent heap pops — and then consumes
// the run front-to-back. Events inserted while the run drains go to the
// (now small) heap; every pop takes the global (at, seq) minimum of
// run-head vs heap-top, so the execution order is bit-identical to the
// pure-heap engine. Cancelling a run-resident event frees its slot and
// callback immediately (pending counts stay exact); the dead 24-byte
// key is skipped in O(1) when the head reaches it. Periodic timers
// never enter the run, so re-arming stays a pure heap re-key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/event_fn.hpp"

namespace penelope::sim {

using common::Ticks;

/// Handle used to cancel or re-key a scheduled event. Stable for the
/// lifetime of the event (for periodic timers: the timer, across
/// firings). Never 0 for a live event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class TimerHeap {
 public:
  /// A fired event, moved out of the heap. For one-shot events the node
  /// is already removed; a periodic event's node stays in the heap
  /// (keyed at its firing time) until rearm() or cancel().
  struct Fired {
    Ticks at = 0;
    std::uint64_t seq = 0;  ///< the fired entry's tie-break key
    EventId id = kInvalidEventId;
    bool periodic = false;
    EventFn fn;
  };

  bool empty() const { return heap_.empty() && run_live_ == 0; }
  std::size_t size() const { return heap_.size() + run_live_; }

  /// Timestamp of the earliest pending event. Requires !empty().
  Ticks min_at() const {
    if (run_live_ > 0 &&
        (heap_.empty() || less(run_[run_head_], heap_[0]))) {
      return run_[run_head_].at;
    }
    return heap_[0].at;
  }

  /// Preallocate capacity for `n` concurrently pending events, making
  /// subsequent insert/cancel churn allocation-free up to that bound.
  void reserve(std::size_t n);

  /// Insert an event; `period == 0` means one-shot. (at, seq) is the
  /// total order — seq must be unique across live and future events.
  /// Inline: this and fire_top() are the per-event engine loop.
  EventId insert(Ticks at, std::uint64_t seq, Ticks period, EventFn&& fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].period = period;
      fn_[slot] = std::move(fn);
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      PEN_CHECK_MSG(slot != kNpos, "timer slab full");
      pos_.push_back(kNpos);
      slots_.push_back(Slot{period, 1});
      fn_.push_back(std::move(fn));
    }
    const Entry entry{at, seq, slot};
    std::size_t pos = heap_.size();
    heap_.push_back(entry);
    if (pos > 0 && less(entry, heap_[(pos - 1) >> 2])) {
      sift_up(pos, entry);
    } else {
      pos_[slot] = static_cast<std::uint32_t>(pos);
    }
    return make_id(slots_[slot].gen, slot);
  }

  /// True-delete. Returns false (and does nothing) if `id` is not
  /// pending: already fired, already cancelled, or never existed.
  bool cancel(EventId id);

  bool contains(EventId id) const { return node_of(id) != kNpos; }

  /// Update a periodic event's period for subsequent re-arms; the
  /// already-scheduled next firing keeps its time. False if `id` is not
  /// a pending periodic timer (one-shot events cannot be made periodic).
  bool set_period(EventId id, Ticks period);

  /// Pop the minimum event for execution. Requires !empty().
  Fired fire_top() {
    PEN_DCHECK(!empty());
    // Amortization guard: a conversion sorts heap_.size() entries, so it
    // must not happen again until at least that many events have fired —
    // otherwise a workload that cancels most of what it schedules (the
    // Penelope timeout pattern) would re-sort its whole pending set over
    // and over for a handful of firings.
    if (run_live_ == 0 && heap_.size() >= kConvertThreshold) {
      if (fires_since_convert_ >= heap_.size()) {
        convert_to_run();
      } else {
        // Count this fire toward the next conversion only while one is
        // actually being held back, so the counter cannot wrap its
        // saturated initial value.
        ++fires_since_convert_;
      }
    }
    // One named return object shared by both branches, so the return is
    // guaranteed NRVO — no Fired (and no EventFn) move per pop.
    Fired fired;
    if (run_live_ > 0 &&
        (heap_.empty() || less(run_[run_head_], heap_[0]))) {
      const Entry top = run_[run_head_];
      fired.at = top.at;
      fired.seq = top.seq;
      fired.id = make_id(slots_[top.slot].gen, top.slot);
      fired.periodic = false;  // periodic timers never enter the run
      fired.fn = std::move(fn_[top.slot]);
      free_node(top.slot);
      --run_live_;
      ++run_head_;
      skip_dead_run_entries();
      return fired;
    }
    const Entry top = heap_[0];
    const Slot& meta = slots_[top.slot];
    fired.at = top.at;
    fired.seq = top.seq;
    fired.id = make_id(meta.gen, top.slot);
    fired.periodic = meta.period > 0;
    fired.fn = std::move(fn_[top.slot]);
    // One-shot events leave the heap before their callback runs: the id
    // is dead (cancelling it is a detected no-op) and pending counts
    // exclude the running event. Periodic nodes stay for rearm().
    if (!fired.periodic) {
      free_node(top.slot);
      remove_from_heap(0);
    }
    return fired;
  }

  /// Re-key a periodic node after its callback ran: next firing at
  /// `fired_at + period` (the node's *current* period, so set_period
  /// calls made inside the callback apply immediately), with a fresh
  /// sequence number, restoring the moved-out callback. Returns false
  /// (discarding `fn`) if the event was cancelled during its callback.
  bool rearm(EventId id, Ticks fired_at, std::uint64_t seq, EventFn&& fn);

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  /// Heap sizes below this are not worth a conversion sort; the Penelope
  /// steady state (a few dozen pending timeouts) stays on the pure heap
  /// path.
  static constexpr std::size_t kConvertThreshold = 64;

  /// High bit of a slot's `pos_` value marks run residency; the low 31
  /// bits are the index into `run_`.
  static constexpr std::uint32_t kRunTag = 0x80000000u;

  /// Heap-resident key: everything a sift comparison needs, contiguous.
  struct Entry {
    Ticks at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  static bool less(const Entry& a, const Entry& b) {
    // Bitwise, not short-circuit: this compiles branch-free, and the
    // min-child selection in the drain loop is built from conditional
    // moves on top of it. Heap comparisons are data-dependent coin
    // flips, so a branchy compare mispredicts constantly; branchless
    // selection is where the drain beats the seed priority_queue.
    return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
  }

  /// Index of the least of the children of a heap position, given the
  /// first child's index (`first_child < n`). Branch-free for the
  /// common full-quad case.
  std::size_t min_child(std::size_t first_child, std::size_t n) const {
    const Entry* h = heap_.data();
    if (first_child + 4 <= n) {
      std::size_t a =
          less(h[first_child + 1], h[first_child]) ? first_child + 1
                                                   : first_child;
      std::size_t b =
          less(h[first_child + 3], h[first_child + 2]) ? first_child + 3
                                                       : first_child + 2;
      return less(h[b], h[a]) ? b : a;
    }
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < n; ++c) {
      best = less(h[c], h[best]) ? c : best;
    }
    return best;
  }

  /// Slot of a live event, or kNpos for stale/invalid ids.
  std::uint32_t node_of(EventId id) const;

  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    pos_[entry.slot] = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos, Entry entry);
  void sift_down(std::size_t pos, Entry entry);

  /// Detach the entry at heap position `pos`; the caller has already
  /// freed its slot (or is keeping it, for a fired one-shot).
  void remove_from_heap(std::size_t pos);

  void free_node(std::uint32_t slot) {
    fn_[slot].reset();  // release captures eagerly, not at slab reuse
    ++slots_[slot].gen;
    pos_[slot] = kNpos;
    free_.push_back(slot);
  }

  /// Sort the heap's one-shot entries into `run_`; periodic timers stay
  /// behind (re-heapified).
  void convert_to_run();

  /// Advance `run_head_` past cancelled (dead) entries.
  void skip_dead_run_entries() {
    while (run_head_ < run_.size() &&
           pos_[run_[run_head_].slot] !=
               (kRunTag | static_cast<std::uint32_t>(run_head_))) {
      ++run_head_;
    }
  }

  /// Slab metadata read once per fire/cancel; the hot per-sift store
  /// goes to `pos_`, kept as its own dense u32 array.
  struct Slot {
    Ticks period;       ///< 0 = one-shot
    std::uint32_t gen;  ///< bumped on free; stale ids never match
  };

  // Slab, structure-of-arrays; all three are indexed by slot and grow
  // together, one element per slot ever used. reserve() only reserves
  // their capacity: a large reservation is not written (so not paged
  // in) until events actually occupy it.
  std::vector<std::uint32_t> pos_;  ///< heap position; kNpos when free
  std::vector<Slot> slots_;
  std::vector<EventFn> fn_;

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> free_;

  std::vector<Entry> run_;    ///< sorted ascending; consumed from the front
  std::size_t run_head_ = 0;  ///< first unconsumed run entry
  std::size_t run_live_ = 0;  ///< uncancelled entries at/after run_head_

  /// Events fired since the last conversion; starts saturated so the
  /// first drain may convert immediately.
  std::uint64_t fires_since_convert_ = ~std::uint64_t{0};
};

}  // namespace penelope::sim
