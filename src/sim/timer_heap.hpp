// Timer queue behind sim::Simulator: a calendar ring of one-tick
// buckets for near-future one-shot events, over an indexed d-ary
// min-heap for everything else.
//
// Three properties the engine needs and std::priority_queue cannot give:
//
//   * true-delete cancel(): cancelling the request/timeout pairs that
//     dominate Penelope runs removes the event and its callback
//     immediately — no tombstones — and pending-event counts are exact;
//   * events are *moved* out when they fire (priority_queue::top is
//     const, forcing a copy of the callback);
//   * periodic timers re-arm by resetting the fired node's key in place
//     (one sift from its current slot) under a stable EventId, instead
//     of freeing the node and constructing a fresh closure per firing.
//
// Calendar ring: almost every event a simulation schedules is a message
// delivery due a few dozen ticks out, so a one-shot due within
// kRingTicks of the ring's base goes to the FIFO bucket of its tick
// instead of the heap. The caller's sequence numbers rise with
// insertion order, so appending keeps each bucket in (at, seq) order
// with no comparison at all. A bucket is a doubly linked list of items,
// so insert, pop and cancel are all O(1). A two-level occupancy bitmap
// (64 words under one summary word) finds the first occupied bucket in
// a few instructions. The base follows the earliest fired time (and
// advance() when the engine clock jumps an idle gap), so the ring always
// covers [base, base + kRingTicks).
//
// The heap keeps periodic timers (re-keyed in place), events beyond the
// ring's horizon (request timeouts, reorder spikes), and two fallbacks
// that keep direct callers correct: an insert whose seq is not above its
// bucket's tail, and one whose time is below the base. Every pop takes
// the global (at, seq) minimum of the ring's front and the heap's top,
// so execution order is exactly the order a single heap would give.
//
// Storage: every event, ring or heap, lives in one pool of 96-byte items
// (key, generation, bucket, inline callback) with a free list, so one
// reservation covers any mix of near and far events. Freed items are
// reused last-in first-out: the delivery a handler sends takes the item
// of the event that just fired, which is still in cache.
//
// Heap layout: the heap itself (`heap_`) is an array of 24-byte (at,
// seq, item) entries, so every sift comparison reads contiguous heap
// memory — never the pool — and sifts move 24 bytes, not 96-byte items.
// Each sift step writes the moved entry's new heap position back to
// `pos_`, a dense u32 array indexed like the pool, so that store lands
// in a small hot region. The per-item heap position makes heap cancel
// O(log n). 4-ary beats binary here: pop-min's sift-down is the hot
// cost, and a 4-ary heap halves its depth while the four sibling keys it
// compares sit in ~1.5 cache lines. Pops use Floyd's hole scheme (push
// the hole to a leaf, then bubble the displaced last entry up), and the
// min-child selection is branch-free (heap comparisons are
// data-dependent coin flips; conditional moves don't mispredict).
//
// EventIds are (generation << 32 | item index), with kRingTag set for
// ring events. An item's generation bumps every time it is freed, so
// cancelling an id that already fired — or whose item was recycled for
// a newer event — is detected and refused instead of deleting a
// stranger.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
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
  /// A fired event, moved out of the queue. For one-shot events the
  /// node is already removed; a periodic event's node stays in the heap
  /// (keyed at its firing time) until rearm() or cancel().
  struct Fired {
    Ticks at = 0;
    std::uint64_t seq = 0;  ///< the fired entry's tie-break key
    EventId id = kInvalidEventId;
    bool periodic = false;
    EventFn fn;
  };

  /// Span of the calendar ring, in ticks (one bucket per tick).
  static constexpr std::uint32_t kRingTicks = 4096;

  TimerHeap() : buckets_(kRingTicks) {}

  bool empty() const { return heap_.empty() && ring_size_ == 0; }
  std::size_t size() const { return heap_.size() + ring_size_; }

  /// Timestamp of the earliest pending event. Requires !empty().
  Ticks min_at() const {
    if (ring_size_ == 0) return heap_[0].at;
    const Ticks ring_at = bucket_tick(front_bucket());
    return heap_.empty() ? ring_at : std::min(ring_at, heap_[0].at);
  }

  /// Preallocate capacity for `n` concurrently pending events, making
  /// subsequent insert/cancel churn allocation-free up to that bound.
  void reserve(std::size_t n);

  /// Insert an event; `period == 0` means one-shot. (at, seq) is the
  /// total order — seq must be unique across live and future events.
  /// `fn` must be non-empty. Inline: this and pop() are the per-event
  /// engine loop.
  EventId insert(Ticks at, std::uint64_t seq, Ticks period, EventFn&& fn) {
    PEN_CHECK(static_cast<bool>(fn));
    if (period != 0 || static_cast<std::uint64_t>(at - base_) >= kRingTicks) {
      return insert_heap(at, seq, period, std::move(fn));
    }
    const std::uint32_t b = static_cast<std::uint32_t>(at) & kRingMask;
    Bucket& bucket = buckets_[b];
    if (bucket.head != kNpos && seq <= items_[bucket.tail].key) {
      // Appending would break the bucket's FIFO = (at, seq) order.
      return insert_heap(at, seq, period, std::move(fn));
    }
    const std::uint32_t index = take_item();
    Item& item = items_[index];
    item.key = seq;
    item.bucket = b;
    item.fn = std::move(fn);
    next_[index] = kNpos;
    prev_[index] = bucket.tail;
    if (bucket.head == kNpos) {
      bucket.head = index;
      occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
      summary_ |= std::uint64_t{1} << (b >> 6);
    } else {
      next_[bucket.tail] = index;
    }
    bucket.tail = index;
    ++ring_size_;
    return make_id(item.gen, kRingTag | index);
  }

  /// True-delete. Returns false (and does nothing) if `id` is not
  /// pending: already fired, already cancelled, or never existed.
  bool cancel(EventId id);

  bool contains(EventId id) const;

  /// Update a periodic event's period for subsequent re-arms; the
  /// already-scheduled next firing keeps its time. False if `id` is not
  /// a pending periodic timer (one-shot events cannot be made periodic).
  bool set_period(EventId id, Ticks period);

  /// Pop the minimum event into `out` if it is due at or before `limit`;
  /// false (leaving `out` alone) if the queue is empty or its minimum is
  /// later. One front lookup serves both the limit test and the pop.
  bool pop(Ticks limit, Fired& out) {
    if (ring_size_ != 0) {
      const std::uint32_t b = front_bucket();
      const std::uint32_t index = buckets_[b].head;
      Item& item = items_[index];
      const Ticks at = bucket_tick(b);
      if (heap_.empty() || less(Entry{at, item.key, 0}, heap_[0])) {
        if (at > limit) return false;
        out.at = at;
        out.seq = item.key;
        out.id = make_id(item.gen, kRingTag | index);
        out.periodic = false;
        out.fn = std::move(item.fn);
        base_ = at;
        // A bucket's items sit wherever the free list put them, so fetch
        // the next one while this event's callback runs.
        if (next_[index] != kNpos) {
          const char* line =
              reinterpret_cast<const char*>(&items_[next_[index]]);
          __builtin_prefetch(line);
          __builtin_prefetch(line + 64);
        }
        unlink(index);
        free_item(index);
        return true;
      }
    } else if (heap_.empty()) {
      return false;
    }
    const Entry top = heap_[0];
    if (top.at > limit) return false;
    Item& item = items_[top.slot];
    out.at = top.at;
    out.seq = top.seq;
    out.id = make_id(item.gen, top.slot);
    out.periodic = item.key != 0;
    out.fn = std::move(item.fn);
    // The base may only rise: a below-base fallback event firing must
    // not pull it back under ring entries near the top of its span.
    if (top.at > base_) base_ = top.at;
    // One-shot events leave the heap before their callback runs: the id
    // is dead (cancelling it is a detected no-op) and pending counts
    // exclude the running event. Periodic nodes stay for rearm().
    if (!out.periodic) {
      pos_[top.slot] = kNpos;
      free_item(top.slot);
      remove_from_heap(0);
    }
    return true;
  }

  /// Pop the minimum event for execution. Requires !empty().
  Fired fire_top() {
    Fired fired;
    const bool popped = pop(std::numeric_limits<Ticks>::max(), fired);
    PEN_DCHECK(popped);
    (void)popped;
    return fired;
  }

  /// Re-key a periodic node after its callback ran: next firing at
  /// `fired_at + period` (the node's *current* period, so set_period
  /// calls made inside the callback apply immediately), with a fresh
  /// sequence number, restoring the moved-out callback. Returns false
  /// (discarding `fn`) if the event was cancelled during its callback.
  bool rearm(EventId id, Ticks fired_at, std::uint64_t seq, EventFn&& fn);

  /// Raise the ring's base to `t` when the owner's clock jumps forward
  /// without firing (an idle gap), so inserts relative to the new clock
  /// still land in the ring. Requires that nothing pending precedes `t`.
  void advance(Ticks t) {
    PEN_DCHECK(empty() || min_at() >= t);
    if (t > base_) base_ = t;
  }

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  static constexpr std::uint32_t kRingMask = kRingTicks - 1;
  static_assert(kRingTicks == 64 * 64, "two-level bitmap covers 64x64");

  /// Set in an EventId's low word when it names a ring item; item
  /// indices stay below it.
  static constexpr std::uint32_t kRingTag = 0x80000000u;

  /// Heap-resident key: everything a sift comparison needs, contiguous.
  struct Entry {
    Ticks at;
    std::uint64_t seq;
    std::uint32_t slot;  ///< the event's item
  };

  /// One pending event. `fn` is empty once the item is freed.
  struct Item {
    /// Ring items: the seq. Heap items: the period, 0 for a one-shot
    /// (their seq is in the heap entry).
    std::uint64_t key = 0;
    std::uint32_t gen = 1;         ///< bumped on free; 1 keeps ids nonzero
    std::uint32_t bucket = kNpos;  ///< ring items: their bucket
    EventFn fn;
  };

  /// FIFO of one tick's ring items, linked through next_/prev_.
  struct Bucket {
    std::uint32_t head = kNpos;  ///< kNpos when empty
    std::uint32_t tail = kNpos;
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t index) {
    return (static_cast<EventId>(gen) << 32) | index;
  }

  static bool less(const Entry& a, const Entry& b) {
    // Bitwise, not short-circuit: this compiles branch-free, and the
    // min-child selection in the drain loop is built from conditional
    // moves on top of it. Heap comparisons are data-dependent coin
    // flips, so a branchy compare mispredicts constantly.
    return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
  }

  /// Time of ring bucket `b`: the one tick in [base_, base_ + kRingTicks)
  /// that maps to it.
  Ticks bucket_tick(std::uint32_t b) const {
    return base_ + static_cast<Ticks>(
                       (b - static_cast<std::uint64_t>(base_)) & kRingMask);
  }

  /// First occupied bucket in time order, i.e. circularly from the
  /// base's bucket. Requires ring_size_ > 0.
  std::uint32_t front_bucket() const {
    const std::uint32_t p = static_cast<std::uint32_t>(base_) & kRingMask;
    const std::uint32_t w = p >> 6;
    const std::uint64_t bits = occ_[w] & (~std::uint64_t{0} << (p & 63));
    if (bits != 0) {
      return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
    }
    // Words after w, else wrap around to the lowest occupied word (which
    // may be w itself, below p).
    const std::uint64_t later = summary_ & (~std::uint64_t{1} << w);
    const auto word = static_cast<std::uint32_t>(
        std::countr_zero(later != 0 ? later : summary_));
    return (word << 6) |
           static_cast<std::uint32_t>(std::countr_zero(occ_[word]));
  }

  /// Detach a ring item from its bucket, clearing the bucket's bit when
  /// it empties.
  void unlink(std::uint32_t index) {
    const std::uint32_t b = items_[index].bucket;
    Bucket& bucket = buckets_[b];
    const std::uint32_t next = next_[index];
    const std::uint32_t prev = prev_[index];
    (prev == kNpos ? bucket.head : next_[prev]) = next;
    (next == kNpos ? bucket.tail : prev_[next]) = prev;
    if (bucket.head == kNpos &&
        (occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63))) == 0) {
      summary_ &= ~(std::uint64_t{1} << (b >> 6));
    }
    --ring_size_;
  }

  /// An unused item, growing the pool when the free list is dry.
  std::uint32_t take_item() {
    if (free_.empty()) return grow();
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }

  std::uint32_t grow();

  void free_item(std::uint32_t index) {
    Item& item = items_[index];
    item.fn.reset();  // release captures eagerly, not at reuse
    item.bucket = kNpos;
    ++item.gen;
    free_.push_back(index);
  }

  EventId insert_heap(Ticks at, std::uint64_t seq, Ticks period,
                      EventFn&& fn);

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

  /// Item of a live heap event, or kNpos for stale/invalid ids (ring
  /// ids included: their tag puts the index past every item).
  std::uint32_t node_of(EventId id) const;

  /// Item of a live ring event, or kNpos for stale/invalid ring ids.
  std::uint32_t item_of(EventId id) const;

  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    pos_[entry.slot] = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos, Entry entry);
  void sift_down(std::size_t pos, Entry entry);

  /// Detach the entry at heap position `pos`; the caller has already
  /// freed its item (or is keeping it, for a fired one-shot).
  void remove_from_heap(std::size_t pos);

  // The item pool and its per-item side arrays, all indexed by item and
  // grown together. reserve() only reserves capacity: a large
  // reservation is not written (so not paged in) until events occupy it.
  std::vector<Item> items_;
  std::vector<std::uint32_t> pos_;   ///< heap position; kNpos if not in heap
  std::vector<std::uint32_t> next_;  ///< ring items: next in the bucket
  std::vector<std::uint32_t> prev_;  ///< ring items: previous in the bucket
  std::vector<std::uint32_t> free_;  ///< unused items

  std::vector<Entry> heap_;

  // Calendar ring.
  std::vector<Bucket> buckets_;
  std::uint64_t occ_[kRingTicks / 64] = {};  ///< bucket occupied bits
  std::uint64_t summary_ = 0;                ///< bit w: occ_[w] != 0
  std::size_t ring_size_ = 0;                ///< live ring events
  Ticks base_ = 0;  ///< ring covers [base_, base_ + kRingTicks)
};

}  // namespace penelope::sim
