// Message-fabric microbenchmark: send→deliver throughput (ping-pong
// round trip) and fan-out burst, plus a steady-state allocation check.
//
// Intentionally self-contained (no google-benchmark) and written
// against the API surface both the pre-variant and post-variant trees
// share, so the exact same source builds in a seed worktree for the
// interleaved A/B comparison documented in BENCH_net.json (method
// follows BENCH_sim.json: same-session alternating runs, medians per
// side).
//
// Modes:
//   bench_network                 throughput numbers (items_per_second)
//   bench_network --min-time=S    longer measurement window
//   bench_network --alloc-check   assert zero heap allocations on the
//                                 warm message path and in a full receive
//                                 TxnWindow, and a budget of 5 for a
//                                 fresh one taking 64 ids
//                                 (ctest: net.zero_alloc)
//   bench_network --jobs=N        run the same worlds over N engine shards
//                                 (default 1: direct scheduling); N >= 2
//                                 takes the staged-send path, and with
//                                 --alloc-check this is the sharded
//                                 zero-alloc gate (ctest: net.zero_alloc_sharded)
//
// The allocation check counts allocator round trips via the shared
// counting operator new/delete hooks (bench/counting_new.hpp, also the
// backbone of telemetry.ZeroOverheadGate): after a warm-up phase (free
// lists and event heap reach their high-water marks), tens of
// thousands of further send→deliver rounds must not touch the
// allocator at all. The same holds for the receive-side dedup window
// every pool runs each request, push and transfer through: once it is
// full, inserts that evict the oldest id allocate nothing. A window
// that only ever sees a few dozen ids, the common case at a node, must
// get there in at most 5 allocator calls, construction included.
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "counting_new.hpp"
#include "core/protocol.hpp"
#include "core/txn_window.hpp"
#include "net/network.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace penelope;

/// Engine shards every world runs over (--jobs). Nodes are laid out
/// contiguously, so with two or more shards the traffic below crosses
/// the staged-flush barrier path: staging, the canonical sort and the
/// window machinery, which must also be allocation-free once staging
/// buffers and event heaps reach their high-water marks.
int g_jobs = 1;

net::NetworkConfig world_config() {
  net::NetworkConfig cfg;
  cfg.latency.floor = common::from_millis(0.05);  // 50 us windows
  return cfg;
}

std::vector<int> shard_map(int nodes) {
  std::vector<int> map(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i)
    map[static_cast<std::size_t>(i)] = i * g_jobs / nodes;
  return map;
}

/// Ping-pong: node 0 sends a request, node 1 answers with a grant; one
/// round = 2 sends + 2 deliveries through the full latency machinery.
struct RoundTripWorld {
  net::NetworkConfig cfg = world_config();
  sim::ShardedSimulator engine{g_jobs, cfg.latency.effective_floor()};
  net::Network net{engine, cfg, shard_map(2)};
  std::uint64_t delivered = 0;
  common::Ticks horizon = 0;

  RoundTripWorld() {
    net.register_endpoint(1, [this](const net::Message& m) {
      ++delivered;
      net.send(1, 0, core::PowerGrant{42.0, m.id, -1});
    });
    net.register_endpoint(0,
                          [this](const net::Message&) { ++delivered; });
  }

  std::size_t round() {
    net.send(0, 1, core::PowerRequest{false, 42.0, 1});
    horizon += common::from_millis(1.0);
    engine.run_until(horizon);
    return 2;
  }
};

/// Fan-out burst: one hub floods 64 peers in a single event-queue
/// drain — the completion-burst traffic shape of the scale study. With
/// several shards the burst is staged in one context, flushed once, and
/// delivered by every shard in parallel windows.
struct FanoutWorld {
  static constexpr int kPeers = 64;
  net::NetworkConfig cfg = world_config();
  sim::ShardedSimulator engine{g_jobs, cfg.latency.effective_floor()};
  net::Network net{engine, cfg, shard_map(kPeers + 1)};
  std::uint64_t delivered = 0;
  std::uint64_t txn = 0;
  common::Ticks horizon = 0;

  FanoutWorld() {
    for (int i = 0; i < kPeers; ++i) {
      net.register_endpoint(
          i + 1, [this](const net::Message&) { ++delivered; });
    }
  }

  std::size_t round() {
    for (int i = 0; i < kPeers; ++i)
      net.send(0, i + 1, core::PowerPush{1.0, ++txn});
    horizon += common::from_millis(1.0);
    engine.run_until(horizon);
    return kPeers;
  }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

template <typename World>
double items_per_second(double min_seconds) {
  World world;
  for (int i = 0; i < 500; ++i) world.round();  // warm-up
  std::uint64_t items = 0;
  auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 500; ++i) items += world.round();
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return static_cast<double>(items) / elapsed;
}

template <typename World>
int alloc_check(const char* name, int warm_rounds, int measured_rounds) {
  World world;
  for (int i = 0; i < warm_rounds; ++i) world.round();
  std::uint64_t before = pen_alloc_gate::allocs_now();
  std::size_t items = 0;
  for (int i = 0; i < measured_rounds; ++i) items += world.round();
  std::uint64_t delta =
      pen_alloc_gate::allocs_now() - before;
  std::printf("%-10s %" PRIu64
              " heap allocations across %d rounds (%zu messages): %s\n",
              name, delta, measured_rounds, items,
              delta == 0 ? "PASS" : "FAIL");
  return delta == 0 ? 0 : 1;
}

/// Fill a default-capacity TxnWindow, then insert `inserts` fresh ids
/// (each evicting the oldest) plus a duplicate of the newest after each.
int txn_window_alloc_check(int inserts) {
  core::TxnWindow window;
  std::uint64_t seq = 0;
  auto next_txn = [&seq] {
    ++seq;
    return core::make_txn_id(static_cast<std::int32_t>(seq % 256), 0,
                             seq / 256);
  };
  for (std::size_t i = 0; i < window.capacity(); ++i) window.insert(next_txn());
  std::uint64_t before = pen_alloc_gate::allocs_now();
  std::uint64_t refused = 0;
  for (int i = 0; i < inserts; ++i) {
    const std::uint64_t txn = next_txn();
    window.insert(txn);
    refused += window.insert(txn) ? 0 : 1;
  }
  std::uint64_t delta = pen_alloc_gate::allocs_now() - before;
  const bool pass = delta == 0 &&
                    refused == static_cast<std::uint64_t>(inserts) &&
                    window.size() == window.capacity();
  std::printf("%-10s %" PRIu64
              " heap allocations across %d inserts with eviction: %s\n",
              "txnwindow", delta, inserts, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

/// A fresh default TxnWindow taking `sightings` first sightings, counted
/// from construction to destruction: the per-run path of short runs,
/// whose windows are built with their cluster and grow from empty
/// inside it (chaos_swarm builds 1024 eight-node clusters). Allocator
/// calls must stay at or under `budget`.
int sparse_window_alloc_check(int sightings, std::uint64_t budget) {
  std::uint64_t before = pen_alloc_gate::allocs_now();
  bool all_new = true;
  std::size_t size = 0;
  {
    core::TxnWindow window;
    for (int i = 1; i <= sightings; ++i)
      all_new &= window.insert(core::make_txn_id(i % 8, 0, i / 8));
    size = window.size();
  }
  std::uint64_t delta = pen_alloc_gate::allocs_now() - before;
  const bool pass = delta <= budget && all_new &&
                    size == static_cast<std::size_t>(sightings);
  std::printf("%-10s %" PRIu64 " heap allocations (budget %" PRIu64
              ") for a fresh window taking %d ids: %s\n",
              "sparsewin", delta, budget, sightings, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  double min_seconds = 0.5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--alloc-check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--min-time=", 11) == 0) {
      min_seconds = std::atof(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      g_jobs = std::atoi(argv[i] + 7);
    } else {
      std::fprintf(stderr,
                   "usage: bench_network [--alloc-check] [--jobs=N] "
                   "[--min-time=SECONDS]\n");
      return 2;
    }
  }
  if (g_jobs < 1) {
    std::fprintf(stderr, "--jobs wants N >= 1 shards\n");
    return 2;
  }

  if (check) {
    int failures = 0;
    failures += alloc_check<RoundTripWorld>("roundtrip", 2000, 20000);
    failures += alloc_check<FanoutWorld>("fanout64", 200, 2000);
    failures += txn_window_alloc_check(100000);
    failures += sparse_window_alloc_check(64, 5);
    return failures == 0 ? 0 : 1;
  }

  std::printf("BM_NetRoundTrip/jobs:%d  items_per_second=%.0f\n", g_jobs,
              items_per_second<RoundTripWorld>(min_seconds));
  std::printf("BM_NetFanout64/jobs:%d   items_per_second=%.0f\n", g_jobs,
              items_per_second<FanoutWorld>(min_seconds));
  return 0;
}
