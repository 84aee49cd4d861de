#include "sim/timer_heap.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace penelope::sim {

void TimerHeap::reserve(std::size_t n) {
  pos_.reserve(n);
  slots_.reserve(n);
  fn_.reserve(n);
  heap_.reserve(n);
  free_.reserve(n);
  run_.reserve(n);
}

std::uint32_t TimerHeap::node_of(EventId id) const {
  auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return kNpos;
  if (slots_[slot].gen != gen || pos_[slot] == kNpos) return kNpos;
  return slot;
}

bool TimerHeap::cancel(EventId id) {
  std::uint32_t slot = node_of(id);
  if (slot == kNpos) return false;
  std::uint32_t pos = pos_[slot];
  free_node(slot);
  if ((pos & kRunTag) != 0) {
    // Run-resident: the slot and callback are freed immediately (the
    // count and captures go now); only the dead 24-byte key lingers,
    // skipped in O(1) when the head reaches it.
    --run_live_;
    if ((pos & ~kRunTag) == run_head_) skip_dead_run_entries();
  } else {
    remove_from_heap(pos);
  }
  return true;
}

bool TimerHeap::set_period(EventId id, Ticks period) {
  std::uint32_t slot = node_of(id);
  if (slot == kNpos) return false;
  if (slots_[slot].period == 0) return false;  // one-shots stay one-shot
  slots_[slot].period = period;
  return true;
}

#ifdef PEN_HEAP_STATS
std::uint64_t g_convert_count = 0;
std::uint64_t g_convert_entries = 0;
#endif

void TimerHeap::convert_to_run() {
#ifdef PEN_HEAP_STATS
  ++g_convert_count;
  g_convert_entries += heap_.size();
#endif
  fires_since_convert_ = 0;
  run_.clear();
  run_head_ = 0;
  // Partition: one-shot entries move to the run, periodic timers stay
  // heap-resident (rearm() re-keys them in place). The same pass tracks
  // whether the moved entries already come out in ascending order —
  // ascending scheduling (the common sim-loop shape) leaves the heap
  // array sorted, and then the sort below is skipped entirely.
  std::size_t keep = 0;
  bool sorted = true;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry entry = heap_[i];
    if (slots_[entry.slot].period > 0) {
      heap_[keep++] = entry;
    } else {
      sorted = sorted && (run_.empty() || !less(entry, run_.back()));
      run_.push_back(entry);
    }
  }
  heap_.resize(keep);
  for (std::size_t i = keep; i-- > 0;) sift_down(i, heap_[i]);
  if (!sorted) {
    std::sort(run_.begin(), run_.end(),
              [](const Entry& a, const Entry& b) { return less(a, b); });
  }
  run_live_ = run_.size();
  for (std::size_t i = 0; i < run_.size(); ++i) {
    pos_[run_[i].slot] = kRunTag | static_cast<std::uint32_t>(i);
  }
}

bool TimerHeap::rearm(EventId id, Ticks fired_at, std::uint64_t seq,
                      EventFn&& fn) {
  std::uint32_t slot = node_of(id);
  if (slot == kNpos) return false;  // cancelled inside its own callback
  fn_[slot] = std::move(fn);
  // The key only grew (period > 0), and the callback can have inserted
  // or removed arbitrary other events meanwhile, so restore from
  // wherever the node sits now. sift_down re-places the entry even when
  // it stays put; sift_up then is a no-op guard for the (impossible
  // today) shrinking-key case.
  std::size_t pos = pos_[slot];
  sift_down(pos, Entry{fired_at + slots_[slot].period, seq, slot});
  sift_up(pos_[slot], heap_[pos_[slot]]);
  return true;
}

void TimerHeap::sift_up(std::size_t pos, Entry entry) {
  while (pos > 0) {
    std::size_t parent = (pos - 1) >> 2;
    if (!less(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void TimerHeap::sift_down(std::size_t pos, Entry entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t first_child = (pos << 2) + 1;
    if (first_child >= n) break;
    std::size_t best = min_child(first_child, n);
    if (!less(heap_[best], entry)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, entry);
}

void TimerHeap::remove_from_heap(std::size_t pos) {
  PEN_DCHECK(pos < heap_.size());
  Entry displaced = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the last entry
  // Floyd's hole scheme: the displaced entry is (almost always) a leaf,
  // so push the hole straight down along min-children to a leaf, then
  // bubble the displaced entry up from there — one compare per level
  // instead of two. The upward pass also covers removal positions whose
  // replacement belongs above them.
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t first_child = (pos << 2) + 1;
    if (first_child >= n) break;
    std::size_t best = min_child(first_child, n);
    place(pos, heap_[best]);
    pos = best;
  }
  sift_up(pos, displaced);
}

}  // namespace penelope::sim
