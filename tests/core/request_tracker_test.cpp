// The requester-side bookkeeping every requester shares: the bounded
// stale map, and the outstanding/late/unknown classification of grants.
#include "core/request_tracker.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

namespace penelope::core {
namespace {

TEST(BoundStaleMap, UnderTheCapNothingIsTouched) {
  std::unordered_map<std::uint64_t, common::Ticks> stale;
  for (std::uint64_t t = 1; t <= 10; ++t) stale[t] = common::Ticks(t);
  // Even with a horizon that would prune everything, a map under the cap
  // is left alone — pruning is purely a memory bound, not a semantic
  // expiry (late grants against small maps must still match).
  bound_stale_map(stale, /*horizon=*/1000, /*cap=*/16);
  EXPECT_EQ(stale.size(), 10u);
}

TEST(BoundStaleMap, HorizonPruneDropsExpiredEntriesFirst) {
  std::unordered_map<std::uint64_t, common::Ticks> stale;
  for (std::uint64_t t = 1; t <= 300; ++t) stale[t] = common::Ticks(t);
  bound_stale_map(stale, /*horizon=*/100, /*cap=*/256);
  // Entries older than the horizon go; the survivors are under the cap,
  // so no further eviction is needed.
  EXPECT_EQ(stale.size(), 201u);
  EXPECT_FALSE(stale.contains(99));
  EXPECT_TRUE(stale.contains(100));
  EXPECT_TRUE(stale.contains(300));
}

TEST(BoundStaleMap, HardCapEvictsOldestWhenEverythingIsRecent) {
  // A loss burst can make every entry recent: the horizon prune deletes
  // nothing and the hard cap must evict oldest-first.
  std::unordered_map<std::uint64_t, common::Ticks> stale;
  for (std::uint64_t t = 1; t <= 300; ++t) stale[t] = common::Ticks(t);
  bound_stale_map(stale, /*horizon=*/0, /*cap=*/256);
  EXPECT_EQ(stale.size(), 256u);
  for (std::uint64_t t = 1; t <= 44; ++t) EXPECT_FALSE(stale.contains(t));
  for (std::uint64_t t = 45; t <= 300; ++t) EXPECT_TRUE(stale.contains(t));
}

TEST(RequestTracker, GrantsMatchOutstandingThenLateThenUnknown) {
  RequestTracker tracker(/*period=*/1000);
  tracker.sent({/*txn=*/11, /*sent_at=*/100, /*peer=*/3});
  EXPECT_EQ(tracker.outstanding_txn(), 11u);

  RequestTracker::GrantMatch m = tracker.match(11);
  EXPECT_EQ(m.match, RequestTracker::Match::kOutstanding);
  EXPECT_EQ(m.request.sent_at, 100);
  EXPECT_EQ(m.request.peer, 3);
  EXPECT_FALSE(tracker.outstanding());

  tracker.sent({12, 2000, 4});
  RequestTracker::Request expired = tracker.expire(/*now=*/3000);
  EXPECT_EQ(expired.txn, 12u);
  EXPECT_EQ(tracker.stale_entries(), 1u);
  m = tracker.match(12);
  EXPECT_EQ(m.match, RequestTracker::Match::kLate);
  EXPECT_EQ(m.request.sent_at, 2000);
  EXPECT_EQ(tracker.stale_entries(), 0u);

  // Consumed: a second sighting matches nothing.
  EXPECT_EQ(tracker.match(12).match, RequestTracker::Match::kUnknown);
}

TEST(RequestTracker, ExpiryBoundsTheStaleMap) {
  RequestTracker tracker(/*period=*/1);
  for (std::uint64_t txn = 1; txn <= 2 * RequestTracker::kStaleCap; ++txn) {
    tracker.sent({txn, static_cast<common::Ticks>(txn), 0});
    tracker.expire(static_cast<common::Ticks>(txn));
  }
  EXPECT_LE(tracker.stale_entries(), RequestTracker::kStaleCap);
}

TEST(RequestTracker, ResetForgetsEverything) {
  RequestTracker tracker(/*period=*/1000);
  EXPECT_TRUE(tracker.window().insert(5));
  tracker.sent({6, 0, 1});
  tracker.expire(10);
  tracker.sent({7, 20, 1});
  tracker.reset();
  EXPECT_FALSE(tracker.outstanding());
  EXPECT_EQ(tracker.stale_entries(), 0u);
  EXPECT_TRUE(tracker.window().insert(5));  // the window is volatile too
}

}  // namespace
}  // namespace penelope::core
