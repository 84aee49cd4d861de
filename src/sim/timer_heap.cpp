#include "sim/timer_heap.hpp"

#include <utility>

#include "common/check.hpp"

namespace penelope::sim {

void TimerHeap::reserve(std::size_t n) {
  items_.reserve(n);
  pos_.reserve(n);
  next_.reserve(n);
  prev_.reserve(n);
  free_.reserve(n);
  heap_.reserve(n);
}

std::uint32_t TimerHeap::grow() {
  const auto index = static_cast<std::uint32_t>(items_.size());
  PEN_CHECK_MSG(index < kRingTag, "timer pool full");
  items_.emplace_back();
  pos_.push_back(kNpos);
  next_.push_back(kNpos);
  prev_.push_back(kNpos);
  return index;
}

EventId TimerHeap::insert_heap(Ticks at, std::uint64_t seq, Ticks period,
                               EventFn&& fn) {
  const std::uint32_t slot = take_item();
  Item& item = items_[slot];
  item.key = static_cast<std::uint64_t>(period);
  item.fn = std::move(fn);
  const Entry entry{at, seq, slot};
  std::size_t pos = heap_.size();
  heap_.push_back(entry);
  if (pos > 0 && less(entry, heap_[(pos - 1) >> 2])) {
    sift_up(pos, entry);
  } else {
    pos_[slot] = static_cast<std::uint32_t>(pos);
  }
  return make_id(item.gen, slot);
}

std::uint32_t TimerHeap::node_of(EventId id) const {
  auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= items_.size()) return kNpos;
  if (items_[slot].gen != gen || pos_[slot] == kNpos) return kNpos;
  return slot;
}

std::uint32_t TimerHeap::item_of(EventId id) const {
  const auto index = static_cast<std::uint32_t>(id) & ~kRingTag;
  if (index >= items_.size()) return kNpos;
  const Item& item = items_[index];
  if (item.gen != static_cast<std::uint32_t>(id >> 32) ||
      item.bucket == kNpos) {
    return kNpos;
  }
  return index;
}

bool TimerHeap::contains(EventId id) const {
  return ((id & kRingTag) != 0 ? item_of(id) : node_of(id)) != kNpos;
}

bool TimerHeap::cancel(EventId id) {
  if ((id & kRingTag) != 0) {
    const std::uint32_t index = item_of(id);
    if (index == kNpos) return false;
    unlink(index);
    free_item(index);
    return true;
  }
  std::uint32_t slot = node_of(id);
  if (slot == kNpos) return false;
  std::uint32_t pos = pos_[slot];
  pos_[slot] = kNpos;
  free_item(slot);
  remove_from_heap(pos);
  return true;
}

bool TimerHeap::set_period(EventId id, Ticks period) {
  std::uint32_t slot = node_of(id);
  if (slot == kNpos) return false;
  if (items_[slot].key == 0) return false;  // one-shots stay one-shot
  items_[slot].key = static_cast<std::uint64_t>(period);
  return true;
}

bool TimerHeap::rearm(EventId id, Ticks fired_at, std::uint64_t seq,
                      EventFn&& fn) {
  std::uint32_t slot = node_of(id);
  if (slot == kNpos) return false;  // cancelled inside its own callback
  Item& item = items_[slot];
  item.fn = std::move(fn);
  // The key only grew (period > 0), and the callback can have inserted
  // or removed arbitrary other events meanwhile, so restore from
  // wherever the node sits now. sift_down re-places the entry even when
  // it stays put; sift_up then is a no-op guard for the (impossible
  // today) shrinking-key case.
  std::size_t pos = pos_[slot];
  sift_down(pos, Entry{fired_at + static_cast<Ticks>(item.key), seq, slot});
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
