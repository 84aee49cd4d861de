#include "sim/timer_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace penelope::sim {
namespace {

using common::Ticks;

// Drain the heap completely, recording (at, value) for every fired
// event. Values are delivered through the callback capture, so this
// also checks that each entry fires with its own closure.
std::vector<std::pair<Ticks, int>> drain(TimerHeap& heap,
                                         std::vector<int>& sink) {
  std::vector<std::pair<Ticks, int>> fired;
  while (!heap.empty()) {
    sink.clear();
    TimerHeap::Fired f = heap.fire_top();
    f.fn(f.at);
    EXPECT_EQ(sink.size(), 1u) << "each event fires exactly once";
    if (sink.size() != 1) break;
    fired.emplace_back(f.at, sink[0]);
  }
  return fired;
}

TEST(TimerHeap, FiresInTimestampThenFifoOrder) {
  TimerHeap heap;
  std::vector<int> sink;
  std::uint64_t seq = 1;
  // Same timestamp for 5, 15, 25: insertion order must win.
  for (int i = 0; i < 32; ++i) {
    Ticks at = (i % 3 == 0) ? 100 : 100 + i;
    heap.insert(at, seq++, /*period=*/0, [&sink, i](Ticks) {
      sink.push_back(i);
    });
  }
  std::vector<std::pair<Ticks, int>> fired = drain(heap, sink);
  ASSERT_EQ(fired.size(), 32u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second) << "FIFO tie-break";
    }
  }
}

TEST(TimerHeap, RandomInsertCancelMatchesReferenceOrder) {
  std::mt19937 rng(12345);
  for (int round = 0; round < 20; ++round) {
    TimerHeap heap;
    std::vector<int> sink;
    std::uint64_t seq = 1;
    std::vector<EventId> ids;
    std::vector<std::pair<Ticks, int>> reference;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      Ticks at = static_cast<Ticks>(rng() % 50);  // dense: many ties
      ids.push_back(heap.insert(at, seq++, 0, [&sink, i](Ticks) {
        sink.push_back(i);
      }));
      reference.emplace_back(at, i);
    }
    // Cancel a random ~40% subset.
    std::vector<bool> cancelled(n, false);
    for (int i = 0; i < n; ++i) {
      if (rng() % 5 < 2) {
        EXPECT_TRUE(heap.cancel(ids[static_cast<size_t>(i)]));
        EXPECT_FALSE(heap.cancel(ids[static_cast<size_t>(i)]))
            << "second cancel of the same id must fail";
        cancelled[static_cast<size_t>(i)] = true;
      }
    }
    std::erase_if(reference, [&](const std::pair<Ticks, int>& e) {
      return cancelled[static_cast<size_t>(e.second)];
    });
    std::stable_sort(reference.begin(), reference.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    EXPECT_EQ(heap.size(), reference.size());
    EXPECT_EQ(drain(heap, sink), reference);
  }
}

TEST(TimerHeap, DrainRunConversionPreservesOrderAboveThreshold) {
  // Descending insertion of many one-shots: each lands in a ring bucket
  // (ticks 1..300 are within the horizon); the fired order must still be
  // ascending, as from a pure heap.
  TimerHeap heap;
  std::vector<int> sink;
  std::uint64_t seq = 1;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    heap.insert(static_cast<Ticks>(n - i), seq++, 0, [&sink, i](Ticks) {
      sink.push_back(i);
    });
  }
  std::vector<std::pair<Ticks, int>> fired = drain(heap, sink);
  ASSERT_EQ(fired.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)].first, i + 1);
    EXPECT_EQ(fired[static_cast<size_t>(i)].second, n - 1 - i);
  }
}

TEST(TimerHeap, CancelWorksWhileRunResident) {
  TimerHeap heap;
  std::vector<int> sink;
  std::uint64_t seq = 1;
  std::vector<EventId> ids;
  const int n = 128;
  for (int i = 0; i < n; ++i) {
    ids.push_back(heap.insert(i, seq++, 0, [&sink, i](Ticks) {
      sink.push_back(i);
    }));
  }
  // Fire once; everything else is pending in the ring.
  sink.clear();
  TimerHeap::Fired first = heap.fire_top();
  first.fn(first.at);
  EXPECT_EQ(sink, std::vector<int>{0});
  // Cancel the next one to fire (bucket release path) and a couple in
  // the middle.
  EXPECT_TRUE(heap.cancel(ids[1]));
  EXPECT_TRUE(heap.cancel(ids[50]));
  EXPECT_TRUE(heap.cancel(ids[51]));
  EXPECT_FALSE(heap.contains(ids[50]));
  EXPECT_EQ(heap.size(), static_cast<size_t>(n - 4));
  std::vector<std::pair<Ticks, int>> fired = drain(heap, sink);
  EXPECT_EQ(fired.size(), static_cast<size_t>(n - 4));
  for (const auto& [at, i] : fired) {
    EXPECT_NE(i, 1);
    EXPECT_NE(i, 50);
    EXPECT_NE(i, 51);
  }
}

TEST(TimerHeap, InsertDuringDrainInterleavesCorrectly) {
  TimerHeap heap;
  std::vector<int> sink;
  std::uint64_t seq = 1;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    heap.insert(10 * i, seq++, 0, [&sink, i](Ticks) { sink.push_back(i); });
  }
  // Drain a third, then insert events that land in the ticks between
  // the remaining ones; every pop must still take the global (at, seq)
  // minimum.
  std::vector<Ticks> fired_at;
  for (int i = 0; i < n / 3; ++i) {
    TimerHeap::Fired f = heap.fire_top();
    f.fn(f.at);
    fired_at.push_back(f.at);
  }
  Ticks resume = fired_at.back();
  for (int i = 0; i < 50; ++i) {
    heap.insert(resume + 5 + 10 * i, seq++, 0, [&sink](Ticks) {
      sink.push_back(-1);
    });
  }
  while (!heap.empty()) {
    TimerHeap::Fired f = heap.fire_top();
    f.fn(f.at);
    fired_at.push_back(f.at);
  }
  EXPECT_TRUE(std::is_sorted(fired_at.begin(), fired_at.end()));
  EXPECT_EQ(fired_at.size(), static_cast<size_t>(n + 50));
}

TEST(TimerHeap, SlotReuseBumpsGeneration) {
  TimerHeap heap;
  std::uint64_t seq = 1;
  EventId a = heap.insert(10, seq++, 0, [](Ticks) {});
  ASSERT_TRUE(heap.cancel(a));
  EventId b = heap.insert(20, seq++, 0, [](Ticks) {});
  EXPECT_NE(a, b) << "reused slot must mint a distinct id";
  EXPECT_FALSE(heap.contains(a));
  EXPECT_TRUE(heap.contains(b));
  EXPECT_FALSE(heap.cancel(a)) << "stale id must not cancel the new event";
  EXPECT_TRUE(heap.contains(b));
}

TEST(TimerHeap, SetPeriodRefusesOneShots) {
  TimerHeap heap;
  std::uint64_t seq = 1;
  EventId one_shot = heap.insert(10, seq++, 0, [](Ticks) {});
  EventId periodic = heap.insert(10, seq++, 7, [](Ticks) {});
  EXPECT_FALSE(heap.set_period(one_shot, 5));
  EXPECT_TRUE(heap.set_period(periodic, 5));
  EXPECT_FALSE(heap.set_period(kInvalidEventId, 5));
}

TEST(TimerHeap, PeriodicRearmKeepsIdAndOrder) {
  TimerHeap heap;
  std::vector<Ticks> ticks;
  std::uint64_t seq = 1;
  EventId id = heap.insert(10, seq++, 10, [&ticks](Ticks t) {
    ticks.push_back(t);
  });
  for (int i = 0; i < 5; ++i) {
    TimerHeap::Fired f = heap.fire_top();
    EXPECT_EQ(f.id, id);
    EXPECT_TRUE(f.periodic);
    f.fn(f.at);
    ASSERT_TRUE(heap.rearm(id, f.at, seq++, std::move(f.fn)));
  }
  EXPECT_EQ(ticks, (std::vector<Ticks>{10, 20, 30, 40, 50}));
  EXPECT_TRUE(heap.contains(id));
  EXPECT_TRUE(heap.cancel(id));
  EXPECT_TRUE(heap.empty());
}

TEST(TimerHeap, PeriodicTimersSurviveDrainConversion) {
  // Periodic timers stay heap-resident while one-shots go to the ring;
  // interleaved firing order must hold.
  TimerHeap heap;
  std::vector<Ticks> fired_at;
  std::uint64_t seq = 1;
  EventId tick = heap.insert(5, seq++, 10, [](Ticks) {});
  for (int i = 0; i < 100; ++i) {
    heap.insert(i, seq++, 0, [](Ticks) {});
  }
  for (int i = 0; i < 60; ++i) {
    TimerHeap::Fired f = heap.fire_top();
    f.fn(f.at);
    fired_at.push_back(f.at);
    if (f.periodic) {
      ASSERT_TRUE(heap.rearm(f.id, f.at, seq++, std::move(f.fn)));
    }
  }
  EXPECT_TRUE(std::is_sorted(fired_at.begin(), fired_at.end()));
  EXPECT_TRUE(heap.contains(tick));
}

TEST(TimerHeap, SizeAndMinAtTrackChurn) {
  TimerHeap heap;
  std::uint64_t seq = 1;
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EventId a = heap.insert(30, seq++, 0, [](Ticks) {});
  EventId b = heap.insert(10, seq++, 0, [](Ticks) {});
  heap.insert(20, seq++, 0, [](Ticks) {});
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.min_at(), 10);
  EXPECT_TRUE(heap.cancel(b));
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.min_at(), 20);
  EXPECT_TRUE(heap.cancel(a));
  TimerHeap::Fired f = heap.fire_top();
  EXPECT_EQ(f.at, 20);
  EXPECT_TRUE(heap.empty());
}


// Differential tests for the calendar ring. trace_hash() is an
// order-insensitive sum, so it cannot show that events sharing a tick
// kept their FIFO order; these tests compare the full fired (at, seq)
// sequence against a std::set of pending keys, which is the order any
// correct timer queue must produce.

using Key = std::pair<Ticks, std::uint64_t>;

// Ring events carry bit 31 in their id (the id layout documented in
// timer_heap.hpp); the tests use it to check which path an insert took.
bool in_ring(EventId id) { return (id & 0x80000000u) != 0; }

class Differential {
 public:
  EventId insert(Ticks at, std::uint64_t seq, Ticks period = 0) {
    const EventId id =
        heap_.insert(at, seq, period, [this, seq](Ticks) { ran_ = seq; });
    EXPECT_TRUE(pending_.emplace(at, seq).second);
    keys_[id] = Key{at, seq};
    periods_[id] = period;
    tags_[id] = seq;
    return id;
  }

  void cancel(EventId id) {
    ASSERT_TRUE(heap_.cancel(id));
    EXPECT_FALSE(heap_.contains(id));
    EXPECT_FALSE(heap_.cancel(id)) << "second cancel must be refused";
    pending_.erase(keys_.at(id));
    keys_.erase(id);
  }

  /// Fire the minimum; periodic timers re-arm with `next_seq`.
  Key fire_one(std::uint64_t next_seq = 0) {
    EXPECT_FALSE(heap_.empty());
    EXPECT_FALSE(pending_.empty());
    TimerHeap::Fired f = heap_.fire_top();
    const Key got{f.at, f.seq};
    const Key want = *pending_.begin();
    fired_.push_back(got);
    expected_.push_back(want);
    pending_.erase(pending_.begin());
    ran_ = 0;
    f.fn(f.at);
    EXPECT_EQ(ran_, tags_.at(f.id))
        << "fired entry ran another event's callback";
    if (f.periodic) {
      const Ticks period = periods_.at(f.id);
      EXPECT_TRUE(heap_.rearm(f.id, f.at, next_seq, std::move(f.fn)));
      pending_.emplace(f.at + period, next_seq);
      keys_[f.id] = Key{f.at + period, next_seq};
    } else {
      EXPECT_FALSE(heap_.contains(f.id));
      keys_.erase(f.id);
    }
    EXPECT_EQ(heap_.size(), pending_.size());
    return got;
  }

  /// Fire everything; cancel periodic timers first.
  void drain() {
    while (!pending_.empty()) fire_one();
    EXPECT_TRUE(heap_.empty());
  }

  /// Fired sequence equals the model's, element for element.
  void expect_same_order() const { EXPECT_EQ(fired_, expected_); }

  TimerHeap& heap() { return heap_; }
  std::size_t pending() const { return pending_.size(); }
  const std::vector<Key>& fired() const { return fired_; }

 private:
  TimerHeap heap_;
  std::set<Key> pending_;
  std::map<EventId, Key> keys_;
  std::map<EventId, Ticks> periods_;
  std::map<EventId, std::uint64_t> tags_;  ///< seq at insert: the closure
  std::vector<Key> fired_;
  std::vector<Key> expected_;
  std::uint64_t ran_ = 0;
};

TEST(TimerHeapRing, HorizonEdgeSplitsRingFromHeap) {
  Differential d;
  std::uint64_t seq = 1;
  const Ticks span = TimerHeap::kRingTicks;
  EXPECT_TRUE(in_ring(d.insert(span - 1, seq++)));
  EXPECT_FALSE(in_ring(d.insert(span, seq++)));
  EXPECT_TRUE(in_ring(d.insert(0, seq++)));
  d.fire_one();  // t = 0
  // The base follows the fired time: the horizon moved with it.
  d.fire_one();  // t = span - 1
  EXPECT_TRUE(in_ring(d.insert(span - 1 + span - 1, seq++)));
  EXPECT_FALSE(in_ring(d.insert(span - 1 + span, seq++)));
  d.drain();
  d.expect_same_order();
  // An idle gap: advance() lifts the base, so near inserts stay near.
  const Ticks gap = 1000000;
  d.heap().advance(gap);
  EXPECT_TRUE(in_ring(d.insert(gap + span - 1, seq++)));
  EXPECT_FALSE(in_ring(d.insert(gap + span, seq++)));
  d.drain();
  d.expect_same_order();
}

TEST(TimerHeapRing, BucketIndexWrapsAroundTheRing) {
  Differential d;
  std::uint64_t seq = 1;
  const Ticks span = TimerHeap::kRingTicks;
  // Three laps: each step fires at the front and schedules into the
  // bucket indices just past the wrap, mixed with ones just before it.
  d.insert(span - 10, seq++);
  for (int lap = 0; lap < 3; ++lap) {
    for (int step = 0; step < 40; ++step) {
      const Ticks now = d.fire_one().first;
      d.insert(now + 7, seq++);
      d.insert(now + span - 1 - step, seq++);
      d.insert(now + 7, seq++);  // same tick, later seq
    }
    while (d.pending() > 1) d.fire_one();
  }
  d.drain();
  d.expect_same_order();
}

TEST(TimerHeapRing, TickSplitBetweenHeapAndRingKeepsSeqOrder) {
  Differential d;
  std::uint64_t seq = 1;
  const Ticks tick = 5000;  // beyond the horizon of base 0
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(in_ring(d.insert(tick, seq++)));
  d.insert(2000, seq++);
  d.fire_one();  // base -> 2000, so `tick` is now inside the ring
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(in_ring(d.insert(tick, seq++)));
  d.drain();
  d.expect_same_order();
  ASSERT_EQ(d.fired().size(), 7u);
}

TEST(TimerHeapRing, OutOfOrderSeqAndBelowBaseFallBackToTheHeap) {
  Differential d;
  EXPECT_TRUE(in_ring(d.insert(10, 50)));
  EXPECT_FALSE(in_ring(d.insert(10, 30))) << "seq below the bucket tail";
  EXPECT_TRUE(in_ring(d.insert(10, 60)));
  EXPECT_FALSE(in_ring(d.insert(10, 55)));
  d.insert(1000, 70);
  d.fire_one();  // 10/30
  d.fire_one();  // 10/50
  d.fire_one();  // 10/55
  d.fire_one();  // 10/60
  d.fire_one();  // 1000/70: base -> 1000
  EXPECT_FALSE(in_ring(d.insert(500, 80))) << "below the base";
  EXPECT_TRUE(in_ring(d.insert(1000 + TimerHeap::kRingTicks - 1, 90)));
  d.fire_one();  // 500 fires first; the base must not fall back
  EXPECT_TRUE(in_ring(d.insert(1000 + TimerHeap::kRingTicks - 1, 91)));
  d.drain();
  d.expect_same_order();
}

TEST(TimerHeapRing, CancelHeadMiddleAndTailOfABucket) {
  Differential d;
  std::uint64_t seq = 1;
  std::vector<EventId> ids;
  // 20 events on one tick; cancel at the head, in the middle, two
  // neighbours, and at the tail.
  for (int i = 0; i < 20; ++i) ids.push_back(d.insert(7, seq++));
  d.insert(8, seq++);
  d.cancel(ids[0]);   // head
  d.cancel(ids[1]);   // new head
  d.cancel(ids[10]);  // middle
  d.cancel(ids[7]);   // a neighbour pair
  d.cancel(ids[8]);
  d.cancel(ids[19]);  // tail
  ids.push_back(d.insert(7, seq++));  // append behind a cancelled tail
  d.fire_one();
  d.cancel(ids[3]);  // the head again, after a fire
  d.drain();
  d.expect_same_order();
  // A bucket cancelled down to empty is released and reusable.
  const EventId a = d.insert(20, seq++);
  const EventId b = d.insert(20, seq++);
  d.cancel(b);
  d.cancel(a);
  EXPECT_TRUE(d.heap().empty());
  d.insert(20, seq++);
  d.drain();
  d.expect_same_order();
}

TEST(TimerHeapRing, PeriodicTimersInterleaveWithOneShots) {
  Differential d;
  std::uint64_t seq = 1;
  d.insert(3, seq++, /*period=*/3);
  d.insert(5, seq++, /*period=*/7);
  for (Ticks t = 0; t < 60; t += 2) d.insert(t, seq++);
  for (Ticks t = 0; t < 60; t += 3) d.insert(t, seq++);
  for (int i = 0; i < 120; ++i) d.fire_one(seq++);
  d.expect_same_order();
}

TEST(TimerHeapRing, RandomNetworkScheduleMatchesReference) {
  // The shape the engine sees: deliveries clustered 50 +- 10 ticks out,
  // request timeouts far beyond the ring, most of them cancelled, and a
  // few periodic ticks.
  for (std::uint32_t round = 0; round < 8; ++round) {
    std::mt19937 rng(2024 + round);
    Differential d;
    std::uint64_t seq = 1;
    Ticks now = 0;
    std::vector<EventId> timeouts;
    const EventId tick = d.insert(100, seq++, /*period=*/1000);
    const EventId slow_tick = d.insert(350, seq++, /*period=*/2500);
    for (int step = 0; step < 4000; ++step) {
      const std::uint32_t roll = rng() % 100;
      if (roll < 45) {
        d.insert(now + 40 + static_cast<Ticks>(rng() % 21), seq++);
      } else if (roll < 60) {
        timeouts.push_back(
            d.insert(now + 100000 + static_cast<Ticks>(rng() % 50), seq++));
      } else if (roll < 72 && !timeouts.empty()) {
        const std::size_t pick = rng() % timeouts.size();
        if (d.heap().contains(timeouts[pick])) d.cancel(timeouts[pick]);
        timeouts[pick] = timeouts.back();
        timeouts.pop_back();
      } else if (d.pending() > 0) {
        now = d.fire_one(seq++).first;
      }
    }
    d.cancel(tick);
    d.cancel(slow_tick);
    d.drain();
    d.expect_same_order();
  }
}

TEST(TimerHeapRing, PopStopsAtTheLimit) {
  TimerHeap heap;
  heap.insert(30, 1, 0, [](Ticks) {});
  heap.insert(10, 2, 0, [](Ticks) {});
  TimerHeap::Fired f;
  EXPECT_FALSE(heap.pop(9, f));
  EXPECT_EQ(heap.size(), 2u);
  ASSERT_TRUE(heap.pop(10, f));
  EXPECT_EQ(f.at, 10);
  EXPECT_FALSE(heap.pop(29, f));
  ASSERT_TRUE(heap.pop(30, f));
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.pop(1000, f));
}

}  // namespace
}  // namespace penelope::sim
