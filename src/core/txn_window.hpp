// Bounded seen-transaction window for at-most-once message application.
//
// Receivers pass every power-carrying message's txn id through insert();
// a false return means the id was already seen inside the window and the
// message is a redelivery (fabric duplicate, retry, or a copy that
// survived a partition heal) that must be counted, never applied.
//
// The window is a ring of the last `capacity` distinct ids plus an
// open-addressed hash table (linear probing, txn 0 marks an empty slot)
// for O(1) membership. Eviction is generation-checked: a ring slot
// being overwritten only erases its table entry if that entry still
// points at this slot's generation — an id re-inserted after eviction
// (possible only via kNoTxn-adjacent misuse, but cheap to defend) can
// occupy a newer slot, and blindly erasing by value would forget it.
// Erasure uses backward-shift deletion, so the table never holds
// tombstones and probe chains stay as short as the load allows.
//
// Memory: the ring and a 16-slot first table are allocated at
// construction; the table then grows by doubling, keeping the load at
// most one half, so it stops at the smallest power of two >= 2 x
// capacity (16 at least). A window that only ever sees a few ids stays
// small, and a full window inserts and evicts without touching the
// allocator. Allocating either lazily, at first insert, made repeated
// set-ups of a large run slower (federated_burst setup_s up by a third
// to a half): with nothing allocated between the set-up's big arrays,
// glibc returned them to the OS at tear-down and the next set-up
// page-faulted them back in.
//
// Sizing: the window only has to outlive the fabric's redelivery horizon
// (a duplicate arrives at most one reorder-delay after its sibling), not
// the life of the node. With per-sender txn streams, 1024 distinct ids
// span far more traffic than any copy can stay in flight.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace penelope::core {

class TxnWindow {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit TxnWindow(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity, 0) {
    grow();
  }

  /// Record `txn` as seen. Returns true if it was NOT in the window
  /// (first sighting: apply the message), false if it was (duplicate:
  /// drop it). kNoTxn is a sentinel and is always "new".
  bool insert(std::uint64_t txn) {
    if (txn == 0) return true;  // kNoTxn: dedup disabled for this sender
    if (find(txn) != kNotFound) return false;
    const std::size_t slot = cursor_;
    const std::uint64_t evicted = ring_[slot];
    if (evicted != 0) {
      const std::size_t old = find(evicted);
      // Generation check: only forget the evicted id if its table entry
      // still belongs to the slot being recycled.
      if (old != kNotFound && table_[old].seq + ring_.size() == next_seq_)
        erase_at(old);
    }
    if (2 * (size_ + 1) > table_.size()) grow();
    place(Entry{txn, next_seq_});
    ++size_;
    ring_[slot] = txn;
    ++next_seq_;
    if (++cursor_ == ring_.size()) cursor_ = 0;
    return true;
  }

  /// Membership without insertion.
  bool contains(std::uint64_t txn) const {
    return txn != 0 && find(txn) != kNotFound;
  }

  /// Forget everything: a crash-restart loses the window (it is volatile
  /// state by design — see PROTOCOL.md "Membership and incarnations").
  /// Safe only because restarted senders keep their sequence counters,
  /// so pre-crash txn ids are never re-minted at the new incarnation.
  void reset() {
    std::fill(ring_.begin(), ring_.end(), 0);
    std::fill(table_.begin(), table_.end(), Entry{});
    size_ = 0;
    cursor_ = 0;
    next_seq_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinTable = 16;

  struct Entry {
    std::uint64_t txn = 0;  ///< 0 = empty slot
    std::uint64_t seq = 0;  ///< insertion sequence (ring generation)
  };

  std::size_t home(std::uint64_t txn) const {
    // Fibonacci hashing: txn ids are structured (node, stream, sequence)
    // bit fields, so mix before taking the top bits.
    return static_cast<std::size_t>((txn * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::size_t find(std::uint64_t txn) const {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = home(txn);; i = (i + 1) & mask) {
      if (table_[i].txn == txn) return i;
      if (table_[i].txn == 0) return kNotFound;
    }
  }

  void place(Entry entry) {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(entry.txn);
    while (table_[i].txn != 0) i = (i + 1) & mask;
    table_[i] = entry;
  }

  /// Backward-shift deletion: pull each later member of the probe chain
  /// into the hole when its home position allows, so lookups never need
  /// tombstones.
  void erase_at(std::size_t hole) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = (hole + 1) & mask; table_[i].txn != 0;
         i = (i + 1) & mask) {
      // Move entry i back iff its home is not cyclically in (hole, i].
      if (((i - home(table_[i].txn)) & mask) >= ((i - hole) & mask)) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole] = Entry{};
    --size_;
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    const std::size_t slots = old.empty() ? kMinTable : 2 * old.size();
    table_.assign(slots, Entry{});
    shift_ = 64 - std::countr_zero(slots);
    for (const Entry& e : old)
      if (e.txn != 0) place(e);
  }

  std::vector<std::uint64_t> ring_;  ///< insertion order, slot = seq % cap
  std::vector<Entry> table_;         ///< open-addressed txn -> seq
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;  ///< next_seq_ % capacity
  int shift_ = 0;           ///< 64 - log2(table_.size())
  std::uint64_t next_seq_ = 0;
};

}  // namespace penelope::core
