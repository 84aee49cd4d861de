// Bounded seen-transaction window for at-most-once message application.
//
// Receivers pass every power-carrying message's txn id through insert();
// a false return means the id was already seen inside the window and the
// message is a redelivery (fabric duplicate, retry, or a copy that
// survived a partition heal) that must be counted, never applied.
//
// The window is a ring of the last `capacity` distinct ids plus an
// open-addressed hash table (linear probing, txn 0 marks an empty slot)
// for O(1) membership. The ring and the table always hold the same set
// of ids: an id enters both only when the table lacks it, and leaves
// both when its ring slot is recycled. So the table stores bare 8-byte
// ids, and eviction erases the recycled slot's id by value. Erasure uses
// backward-shift deletion, so the table never holds tombstones and probe
// chains stay as short as the load allows. A full window prefetches the
// table line of its next eviction (the id at the ring's cursor) one
// insert ahead, since that id was inserted `capacity` ids ago and its
// line is cold.
//
// Memory grows with use. A 16-slot first table (128 bytes) is allocated
// at construction and doubles at load above one half, so it stops at the
// smallest power of two >= 2 x capacity (16 at least). The ring is
// allocated at the first insert with room for 64 ids and doubles up to
// `capacity`; reserve() allocates all of it at once. A fresh default
// window that takes 64 ids makes 5 allocator calls (the first table,
// three doublings, the ring), as many as the old window, which allocated
// its whole 8 KB ring at construction; `bench_network --alloc-check`
// pins that budget. A full window inserts and evicts without touching
// the allocator. A node's window sees a few dozen ids in a typical run:
// 8192 default windows taking 50 ids each hold about 12 MB, where the
// old layout (a whole ring up front, 16-byte table entries) held 80 MB.
//
// Allocator note, from federated_burst's set-up (362 pool windows, run
// repeatedly in one process): what is allocated at construction decides
// whether glibc returns a torn-down cluster's memory to the OS, which
// the next set-up then page-faults back in. Allocating the whole window
// lazily at the first insert made setup_s slower by a third to a half.
// Measured variants against the old window's ~18 ms: one buffer for
// ring and table, grown with use, took setup_s to ~31 ms (minor faults
// 111k -> 167k per process); sizing the pool windows' whole ring and
// table at construction was still ~31 ms; a separate ring that the
// arena reserves, with tables grown with use (this design), stays
// within a few percent either way (three A/B runs of 10 interleaved
// pairs on a 4-core host: -1.4%, +4.1%, -2.4% in the median). The
// arena therefore reserve()s its pool windows: they fill in the first
// burst anyway.
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
      : table_(kMinTable, 0), capacity_(capacity) {}

  /// Allocate the whole ring now instead of as ids arrive, for a window
  /// that will fill up anyway. Keeps the ids already seen.
  void reserve() { ring_.reserve(capacity_); }

  /// Record `txn` as seen. Returns true if it was NOT in the window
  /// (first sighting: apply the message), false if it was (duplicate:
  /// drop it). kNoTxn is a sentinel and is always "new".
  bool insert(std::uint64_t txn) {
    if (txn == 0) return true;  // kNoTxn: dedup disabled for this sender
    const std::size_t slot = probe(txn);
    if (table_[slot] == txn) return false;
    if (ring_.size() == capacity_) {
      // Full: the new id takes the empty slot its probe ended on, then
      // the oldest id leaves the table and hands over its ring slot. The
      // table keeps an empty slot throughout, since it holds at most
      // capacity + 1 ids in at least 2 x capacity slots.
      table_[slot] = txn;
      std::uint64_t& oldest = ring_[cursor_];
      erase_at(probe(oldest));
      oldest = txn;
      if (++cursor_ == capacity_) cursor_ = 0;
      __builtin_prefetch(&table_[home(ring_[cursor_])]);
      return true;
    }
    if (2 * (ring_.size() + 1) > table_.size()) {
      grow_table();
      table_[probe(txn)] = txn;
    } else {
      table_[slot] = txn;
    }
    if (ring_.size() == ring_.capacity())
      ring_.reserve(
          std::min(capacity_, std::max(kFirstRing, 2 * ring_.size())));
    ring_.push_back(txn);
    return true;
  }

  /// Membership without insertion.
  bool contains(std::uint64_t txn) const {
    return txn != 0 && table_[probe(txn)] == txn;
  }

  /// Forget everything: a crash-restart loses the window (it is volatile
  /// state by design — see PROTOCOL.md "Membership and incarnations").
  /// Safe only because restarted senders keep their sequence counters,
  /// so pre-crash txn ids are never re-minted at the new incarnation.
  /// Keeps the memory already allocated.
  void reset() {
    ring_.clear();
    std::fill(table_.begin(), table_.end(), 0);
    cursor_ = 0;
  }

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::size_t kMinTable = 16;
  static constexpr std::size_t kFirstRing = 64;

  std::size_t home(std::uint64_t txn) const {
    // Fibonacci hashing: txn ids are structured (node, stream, sequence)
    // bit fields, so mix before taking the top bits.
    return static_cast<std::size_t>((txn * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// The slot holding `txn`, or the empty slot that ends its probe chain.
  std::size_t probe(std::uint64_t txn) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(txn);
    while (table_[i] != txn && table_[i] != 0) i = (i + 1) & mask;
    return i;
  }

  /// Backward-shift deletion: pull each later member of the probe chain
  /// into the hole when its home position allows, so lookups never need
  /// tombstones.
  void erase_at(std::size_t hole) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = (hole + 1) & mask; table_[i] != 0;
         i = (i + 1) & mask) {
      // Move entry i back iff its home is not cyclically in (hole, i].
      if (((i - home(table_[i])) & mask) >= ((i - hole) & mask)) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole] = 0;
  }

  void grow_table() {
    table_.assign(2 * table_.size(), 0);
    shift_ = 64 - std::countr_zero(table_.size());
    for (std::uint64_t txn : ring_) table_[probe(txn)] = txn;
  }

  std::vector<std::uint64_t> ring_;   ///< ids in insertion order
  std::vector<std::uint64_t> table_;  ///< open-addressed ids, 0 = empty
  std::size_t capacity_;
  std::size_t cursor_ = 0;  ///< oldest id's ring slot once full
  int shift_ = 64 - std::countr_zero(kMinTable);  ///< 64 - log2(table size)
};

}  // namespace penelope::core
