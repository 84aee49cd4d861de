#include "core/txn_window.hpp"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <utility>
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
  // new ring slot; evicting the ids around it must not erase the fresh
  // entry. An id leaves the table only when the one ring slot holding it
  // is recycled, and the ring never holds an id twice, so erasing the
  // recycled slot's id by value cannot forget a newer copy.
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

/// Draws ids from a universe about three windows wide, so the stream
/// mixes first sightings, in-window duplicates, evictions and
/// re-insertions after eviction; half of them are structured
/// make_txn_id values (clustered bit fields), the rest small integers,
/// plus the kNoTxn sentinel.
class TxnStream {
 public:
  TxnStream(std::size_t capacity, std::uint64_t seed)
      : rng_(seed), universe_(3 * capacity + 2) {}

  std::uint64_t draw() {
    const std::uint64_t v = rng_() % universe_;
    switch (rng_() % 8) {
      case 0:
        return kNoTxn;
      case 1:
      case 2:
      case 3:
        return structured(v);
      default:
        return v + 1;
    }
  }

  static std::uint64_t structured(std::uint64_t v) {
    return make_txn_id(static_cast<std::int32_t>(v % 5),
                       static_cast<std::uint32_t>(v % 3), v / 15);
  }

  /// One step of the differential check: an insert, or three times in
  /// ten a membership query (once in 10^4 a reset() of both windows when
  /// `resets` is set); then the sizes must agree.
  void step(TxnWindow& window, ReferenceWindow& model, bool resets) {
    const std::uint64_t txn = draw();
    const std::uint64_t r = rng_() % 10000;
    if (r == 0 && resets) {
      window.reset();
      model.reset();
    } else if (r < 3000) {
      ASSERT_EQ(window.contains(txn), model.contains(txn)) << "txn " << txn;
    } else {
      ASSERT_EQ(window.insert(txn), model.insert(txn)) << "txn " << txn;
    }
    ASSERT_EQ(window.size(), model.size());
  }

  /// `ops` steps without random resets, then every id the stream can
  /// draw must agree on contains().
  void run(TxnWindow& window, ReferenceWindow& model, int ops) {
    for (int op = 0; op < ops; ++op) {
      ASSERT_NO_FATAL_FAILURE(step(window, model, false)) << "op " << op;
    }
    for (std::uint64_t v = 0; v < universe_; ++v) {
      for (std::uint64_t id : {v + 1, structured(v)}) {
        ASSERT_EQ(window.contains(id), model.contains(id)) << "id " << id;
      }
    }
  }

 private:
  std::mt19937_64 rng_;
  std::uint64_t universe_;
};

TEST(TxnWindow, MatchesReferenceModelOnRandomOperations) {
  // A rare reset() restarts both windows.
  std::size_t checked = 0;
  for (std::size_t capacity : {1, 2, 3, 4, 16, 1024}) {
    TxnStream stream(capacity, 0x7a11 + capacity);
    TxnWindow window(capacity);
    ReferenceWindow model(capacity);
    for (int op = 0; op < 40000; ++op) {
      ASSERT_NO_FATAL_FAILURE(stream.step(window, model, true))
          << "capacity " << capacity << " op " << op;
      ++checked;
    }
  }
  EXPECT_GE(checked, 100000u);
}

constexpr std::size_t kGrowthCapacities[] = {1, 2, 3, 5, 16, 1000, 1024};

/// Ops that fill a window of `capacity` from empty and wrap its ring
/// several times.
int refill_ops(std::size_t capacity) {
  return static_cast<int>(12 * capacity) + 200;
}

TEST(TxnWindow, GrowthPathMatchesReferenceModel) {
  // The ring and table grow while the window fills; non-power-of-two
  // capacities wrap right after a growth step, since the last ring
  // growth is clipped to the capacity. Every quarter window of ops, all
  // ids are checked, so an id lost by a growth step is seen before it
  // would have been evicted anyway.
  for (std::size_t capacity : kGrowthCapacities) {
    SCOPED_TRACE(capacity);
    TxnStream stream(capacity, 0x6e0 + capacity);
    TxnWindow window(capacity);
    ReferenceWindow model(capacity);
    const int quarter = static_cast<int>(capacity / 4) + 4;
    for (int chunk = 0; chunk < 50; ++chunk) {
      ASSERT_NO_FATAL_FAILURE(stream.run(window, model, quarter));
    }
    EXPECT_EQ(window.capacity(), capacity);
  }
}

TEST(TxnWindow, ReservedRingMatchesReferenceModel) {
  for (std::size_t capacity : kGrowthCapacities) {
    SCOPED_TRACE(capacity);
    {
      // Reserved at construction, as the arena's pool windows are.
      TxnStream stream(capacity, 0x7e5 + capacity);
      TxnWindow window(capacity);
      window.reserve();
      ReferenceWindow model(capacity);
      ASSERT_NO_FATAL_FAILURE(stream.run(window, model, refill_ops(capacity)));
    }
    {
      // Reserved after a partial fill: the ids seen so far are kept.
      TxnStream stream(capacity, 0x8e5 + capacity);
      TxnWindow window(capacity);
      ReferenceWindow model(capacity);
      const int partial = static_cast<int>(capacity / 2) + 1;
      ASSERT_NO_FATAL_FAILURE(stream.run(window, model, partial));
      window.reserve();
      ASSERT_NO_FATAL_FAILURE(stream.run(window, model, refill_ops(capacity)));
    }
  }
}

TEST(TxnWindow, ResetThenRefillMatchesReferenceModel) {
  for (std::size_t capacity : kGrowthCapacities) {
    SCOPED_TRACE(capacity);
    for (bool wrapped : {false, true}) {
      SCOPED_TRACE(wrapped ? "reset after a wrap" : "reset mid-fill");
      TxnStream stream(capacity, 0x9e5 + capacity + (wrapped ? 1 : 0));
      TxnWindow window(capacity);
      ReferenceWindow model(capacity);
      // Half a window of ops stays under capacity (not every id drawn is
      // new); eight windows' worth wraps the ring several times.
      const int fill = wrapped ? static_cast<int>(8 * capacity) + 50
                               : static_cast<int>(capacity / 2);
      ASSERT_NO_FATAL_FAILURE(stream.run(window, model, fill));
      if (wrapped) {
        ASSERT_EQ(window.size(), capacity);
      } else {
        ASSERT_LT(window.size(), capacity);
      }
      window.reset();
      model.reset();
      ASSERT_EQ(window.size(), 0u);
      ASSERT_NO_FATAL_FAILURE(stream.run(window, model, refill_ops(capacity)));
    }
  }
}

TEST(TxnWindow, MovedWindowMatchesReferenceModel) {
  for (std::size_t capacity : kGrowthCapacities) {
    SCOPED_TRACE(capacity);
    const int half = static_cast<int>(capacity / 2) + 1;
    TxnStream stream(capacity, 0xae5 + capacity);
    ReferenceWindow model(capacity);
    TxnWindow window(capacity);
    ASSERT_NO_FATAL_FAILURE(stream.run(window, model, half));
    // Move construction in the middle of a fill.
    TxnWindow moved(std::move(window));
    ASSERT_NO_FATAL_FAILURE(stream.run(moved, model, half));
    // Move assignment over a window holding other ids.
    TxnWindow assigned(capacity);
    for (std::uint64_t t = 1; t <= capacity; ++t) assigned.insert(~t);
    assigned = std::move(moved);
    ASSERT_NO_FATAL_FAILURE(stream.run(assigned, model, refill_ops(capacity)));
  }
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
