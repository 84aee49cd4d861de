#include "core/txn_window.hpp"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"

namespace penelope::core {
namespace {

/// The original hash-map window, kept as the reference model the
/// open-addressed TxnWindow must agree with on every call.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(std::size_t capacity) : ring_(capacity, 0) {}

  bool insert(std::uint64_t txn) {
    if (txn == 0) return true;
    auto [it, inserted] = seen_.try_emplace(txn, next_seq_);
    if (!inserted) return false;
    const std::size_t slot = next_seq_ % ring_.size();
    const std::uint64_t evicted = ring_[slot];
    if (evicted != 0) {
      auto old = seen_.find(evicted);
      if (old != seen_.end() && old->second + ring_.size() == next_seq_)
        seen_.erase(old);
    }
    ring_[slot] = txn;
    ++next_seq_;
    return true;
  }

  bool contains(std::uint64_t txn) const {
    return txn != 0 && seen_.count(txn) != 0;
  }

  void reset() {
    std::fill(ring_.begin(), ring_.end(), 0);
    seen_.clear();
    next_seq_ = 0;
  }

  std::size_t size() const { return seen_.size(); }

 private:
  std::vector<std::uint64_t> ring_;
  std::unordered_map<std::uint64_t, std::uint64_t> seen_;
  std::uint64_t next_seq_ = 0;
};

TEST(TxnWindow, FirstSightingAcceptsRedeliveryRefuses) {
  TxnWindow window;
  EXPECT_TRUE(window.insert(42));
  EXPECT_TRUE(window.contains(42));
  EXPECT_FALSE(window.insert(42));
  EXPECT_TRUE(window.insert(43));
  EXPECT_FALSE(window.insert(42));
  EXPECT_EQ(window.size(), 2u);
}

TEST(TxnWindow, SentinelTxnIsNeverDeduplicated) {
  TxnWindow window;
  // kNoTxn marks legacy senders with no dedup id: every copy must pass.
  EXPECT_TRUE(window.insert(kNoTxn));
  EXPECT_TRUE(window.insert(kNoTxn));
  EXPECT_FALSE(window.contains(kNoTxn));
  EXPECT_EQ(window.size(), 0u);
}

TEST(TxnWindow, EvictsOldestAtCapacity) {
  TxnWindow window(4);
  for (std::uint64_t t = 1; t <= 4; ++t) EXPECT_TRUE(window.insert(t));
  for (std::uint64_t t = 1; t <= 4; ++t) EXPECT_TRUE(window.contains(t));
  // A fifth insert pushes out the oldest; the evicted txn becomes
  // acceptable again (the window only promises recent-past dedup).
  EXPECT_TRUE(window.insert(5));
  EXPECT_FALSE(window.contains(1));
  EXPECT_TRUE(window.contains(2));
  EXPECT_TRUE(window.contains(5));
  EXPECT_TRUE(window.insert(1));
  EXPECT_EQ(window.size(), 4u);
}

TEST(TxnWindow, ReinsertedTxnSurvivesUnrelatedEvictions) {
  // A txn that was evicted and then legitimately re-inserted lives at a
  // new ring slot; evicting its *old* slot's successor must not erase
  // the fresh entry (the generation check in insert guards this).
  TxnWindow window(2);
  EXPECT_TRUE(window.insert(10));  // slot 0
  EXPECT_TRUE(window.insert(11));  // slot 1
  EXPECT_TRUE(window.insert(12));  // slot 0, evicts 10
  EXPECT_TRUE(window.insert(10));  // slot 1, evicts 11 — 10 is fresh again
  EXPECT_TRUE(window.contains(10));
  EXPECT_TRUE(window.contains(12));
  EXPECT_TRUE(window.insert(13));  // slot 0, evicts 12
  EXPECT_TRUE(window.contains(10));
  EXPECT_FALSE(window.insert(10));  // still deduplicated
  EXPECT_TRUE(window.insert(14));  // slot 1, finally evicts 10
  EXPECT_FALSE(window.contains(10));
}

TEST(TxnWindow, SizeIsBoundedByCapacityForever) {
  TxnWindow window(16);
  for (std::uint64_t t = 1; t <= 1000; ++t) {
    EXPECT_TRUE(window.insert(t));
    EXPECT_LE(window.size(), 16u);
  }
  for (std::uint64_t t = 985; t <= 1000; ++t) {
    EXPECT_TRUE(window.contains(t));
  }
  EXPECT_FALSE(window.contains(984));
  EXPECT_EQ(window.capacity(), 16u);
}

TEST(TxnWindow, MatchesReferenceModelOnRandomOperations) {
  // Ids come from a universe about three windows wide, so the stream
  // mixes first sightings, in-window duplicates, evictions and
  // re-insertions after eviction; half of them are structured
  // make_txn_id values (clustered bit fields), the rest small integers,
  // plus the kNoTxn sentinel. A rare reset() restarts both windows.
  std::size_t checked = 0;
  for (std::size_t capacity : {1, 2, 3, 4, 16, 1024}) {
    std::mt19937_64 rng(0x7a11 + capacity);
    TxnWindow window(capacity);
    ReferenceWindow model(capacity);
    const std::uint64_t universe = 3 * capacity + 2;
    auto draw = [&]() -> std::uint64_t {
      const std::uint64_t v = rng() % universe;
      switch (rng() % 8) {
        case 0:
          return kNoTxn;
        case 1:
        case 2:
        case 3:
          return make_txn_id(static_cast<std::int32_t>(v % 5),
                             static_cast<std::uint32_t>(v % 3), v / 15);
        default:
          return v + 1;
      }
    };
    for (int op = 0; op < 40000; ++op) {
      const std::uint64_t txn = draw();
      const std::uint64_t r = rng() % 10000;
      if (r == 0) {
        window.reset();
        model.reset();
      } else if (r < 3000) {
        ASSERT_EQ(window.contains(txn), model.contains(txn))
            << "capacity " << capacity << " op " << op << " txn " << txn;
      } else {
        ASSERT_EQ(window.insert(txn), model.insert(txn))
            << "capacity " << capacity << " op " << op << " txn " << txn;
      }
      ASSERT_EQ(window.size(), model.size())
          << "capacity " << capacity << " op " << op;
      ++checked;
    }
  }
  EXPECT_GE(checked, 100000u);
}

TEST(TxnId, NamespacesNodesAndStreams) {
  // Two nodes using the same sequence numbers, or one node's two streams,
  // must never collide: a collision would make the receive window drop a
  // legitimate first delivery as a duplicate.
  EXPECT_NE(make_txn_id(0, 0, 7), make_txn_id(1, 0, 7));
  EXPECT_NE(make_txn_id(0, 0, 7), make_txn_id(0, 1, 7));
  EXPECT_NE(make_txn_id(3, 1, 7), make_txn_id(3, 1, 8));
  // The unit-test degenerate form: node -1, stream 0 is the raw sequence.
  EXPECT_EQ(make_txn_id(-1, 0, 7), 7u);
  // Namespaced ids never collide with the sentinel.
  EXPECT_NE(make_txn_id(0, 0, 0), kNoTxn);
}

}  // namespace
}  // namespace penelope::core
