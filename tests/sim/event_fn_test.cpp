#include "sim/event_fn.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

// Global allocation counter: every operator new in this test binary
// bumps it, so a snapshot around a region measures exactly the heap
// allocations that region performed.
namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace penelope::sim {
namespace {

std::size_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(EventFn, EmptyByDefault) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EventFn null_fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(EventFn, InvokesWithFiringTime) {
  Ticks seen = -1;
  EventFn fn = [&](Ticks t) { seen = t; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn(42);
  EXPECT_EQ(seen, 42);
}

TEST(EventFn, AdaptsZeroArgCallables) {
  int calls = 0;
  EventFn fn = [&] { ++calls; };
  fn(7);
  fn(8);
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, MoveTransfersAndEmptiesSource) {
  int calls = 0;
  EventFn a = [&] { ++calls; };
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b(0);
  EXPECT_EQ(calls, 1);

  EventFn c;
  c = std::move(b);
  c(0);
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, AcceptsMoveOnlyCallables) {
  auto flag = std::make_unique<int>(0);
  int* raw = flag.get();
  EventFn fn = [owned = std::move(flag)](Ticks) { ++*owned; };
  EventFn moved = std::move(fn);
  moved(0);
  EXPECT_EQ(*raw, 1);
}

// A callable with non-trivial move/destroy, to exercise the indirect
// relocate path (trivially-copyable captures take the memcpy path and
// are covered by every other test here).
struct Tracked {
  static int live;
  std::vector<int>* out;
  explicit Tracked(std::vector<int>* o) : out(o) { ++live; }
  Tracked(const Tracked& other) : out(other.out) { ++live; }
  Tracked(Tracked&& other) noexcept : out(other.out) { ++live; }
  ~Tracked() { --live; }
  void operator()(common::Ticks t) { out->push_back(static_cast<int>(t)); }
};
int Tracked::live = 0;

TEST(EventFn, NonTrivialCallableRelocatesAndDestroys) {
  std::vector<int> out;
  {
    EventFn a = Tracked{&out};
    EXPECT_EQ(Tracked::live, 1);
    EventFn b = std::move(a);
    EXPECT_EQ(Tracked::live, 1);  // relocate = move + destroy source
    b(5);
  }
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(out, (std::vector<int>{5}));
}

TEST(EventFn, SmallCapturesStayInline) {
  // The boundary case: a capture of exactly kInlineCapacity bytes (the
  // size of the fabric's {Network*, Message} delivery closure) is still
  // stored inline.
  struct {
    char bytes[EventFn::kInlineCapacity];
  } capture{};
  auto callable = [capture](Ticks) { (void)capture; };
  static_assert(EventFn::kFitsInline<decltype(callable)>);
  const std::size_t before = allocs();
  EventFn fn = callable;
  EventFn moved = std::move(fn);
  moved(0);
  EXPECT_EQ(allocs(), before);
}

TEST(EventFn, OversizedCapturesFallBackToOneHeapAllocation) {
  struct {
    char bytes[EventFn::kInlineCapacity + 1];
  } capture{};
  auto callable = [capture](Ticks) { (void)capture; };
  static_assert(!EventFn::kFitsInline<decltype(callable)>);
  const std::size_t before = allocs();
  EventFn fn = callable;
  EXPECT_EQ(allocs(), before + 1);
  // Moving a heap-held callable moves the pointer: no further allocation.
  EventFn moved = std::move(fn);
  moved(0);
  EXPECT_EQ(allocs(), before + 1);
}

// Acceptance gate: schedule_after of a lambda capturing <= 32 bytes
// performs zero heap allocations. With reserve() covering the pending
// count, a full schedule -> cancel -> run cycle stays allocation-free.
TEST(EventFn, ScheduleAfterSmallCaptureNeverAllocates) {
  Simulator sim;
  sim.reserve(256);
  std::uint64_t sum = 0;
  struct Capture {
    std::uint64_t* sum;
    std::uint64_t a, b, c;
  };
  static_assert(sizeof(Capture) == 32);

  std::vector<EventId> ids;
  ids.reserve(256);  // the test's own bookkeeping, allocated up front
  std::uint64_t expected = 0;
  for (int i = 1; i < 256; i += 2) {
    expected += static_cast<std::uint64_t>(i) + 2 + 3;
  }

  const std::size_t before = allocs();
  for (int i = 0; i < 256; ++i) {
    Capture cap{&sum, static_cast<std::uint64_t>(i), 2, 3};
    ids.push_back(sim.schedule_after(
        i, [cap](Ticks) { *cap.sum += cap.a + cap.b + cap.c; }));
  }
  for (int i = 0; i < 256; i += 2) sim.cancel(ids[static_cast<size_t>(i)]);
  sim.run();
  EXPECT_EQ(allocs(), before);
  EXPECT_EQ(sum, expected);
}

}  // namespace
}  // namespace penelope::sim
