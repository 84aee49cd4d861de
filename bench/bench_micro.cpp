// Google-benchmark microbenchmarks for the hot paths: the event queue,
// pool transactions, decider steps, power-model integration, network
// delivery, and a full simulated cluster-second. These quantify the
// simulator's capacity (events/s) and the protocol's per-operation cost,
// which bounds how large a cluster this substrate can reproduce.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "central/server.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/decider.hpp"
#include "core/pool.hpp"
#include "core/protocol.hpp"
#include "core/txn_window.hpp"
#include "net/codec.hpp"
#include "net/network.hpp"
#include "net/serial_server.hpp"
#include "power/simulated_rapl.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace penelope;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1024)->Arg(16384);

void BM_SimulatorTimeoutChurn(benchmark::State& state) {
  // Penelope's dominant event pattern: nearly every scheduled timeout is
  // cancelled when the reply arrives first (actors.cpp request/timeout
  // pairs). Schedule N timeouts, cancel 95% of them, run the remainder —
  // the workload a tombstone-based queue handles worst, since every
  // cancelled event must still be popped through.
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    std::vector<sim::EventId> ids(static_cast<std::size_t>(n));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule_at(1000 + i, [&fired] { ++fired; });
    }
    for (int i = 0; i < n; ++i) {
      if (i % 20 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorTimeoutChurn)->Arg(1024)->Arg(16384);

void BM_PeriodicTick(benchmark::State& state) {
  // Per-firing cost of a periodic task (every node's decider tick rides
  // this path).
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t ticks = 0;
    sim::PeriodicTask task(sim, 1, 1, [&](common::Ticks) { ++ticks; });
    sim.run_until(n);
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PeriodicTick)->Arg(16384);

void BM_SimulatorCascade(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int remaining = n;
    std::function<void()> next = [&] {
      if (--remaining > 0) sim.schedule_after(1, next);
    };
    sim.schedule_at(0, next);
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorCascade)->Arg(16384);

void BM_PoolServe(benchmark::State& state) {
  core::PowerPool pool;
  pool.deposit(1e12);
  core::PowerRequest request;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.serve(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolServe);

void BM_PoolServeUrgent(benchmark::State& state) {
  core::PowerPool pool;
  pool.deposit(1e12);
  core::PowerRequest request;
  request.urgent = true;
  request.alpha_watts = 25.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.serve(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolServeUrgent);

void BM_DeciderStep(benchmark::State& state) {
  core::PowerPool pool;
  core::Decider decider(
      core::DeciderConfig{160.0, 5.0,
                          power::SafeRange{80.0, 250.0}},
      pool);
  common::Rng rng(7);
  for (auto _ : state) {
    double p = rng.uniform(90.0, 170.0);
    core::StepOutcome out = decider.begin_step(p);
    if (out.kind == core::StepKind::kNeedsPeer) {
      decider.complete_peer_grant(5.0);
    }
    decider.finish_step();
    benchmark::DoNotOptimize(decider.cap());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeciderStep);

void BM_CentralServerRequest(benchmark::State& state) {
  central::ServerLogic server;
  server.handle_donation(central::CentralDonation{1e12});
  central::CentralRequest request;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_request(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CentralServerRequest);

void BM_RaplAdvance(benchmark::State& state) {
  power::SimulatedRaplConfig cfg;
  power::SimulatedRapl rapl(cfg);
  rapl.set_demand(180.0, 0);
  common::Ticks t = 0;
  for (auto _ : state) {
    t += 1000;
    benchmark::DoNotOptimize(rapl.read_average_power(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RaplAdvance);

// Steady-state receive window: full at capacity 1024, every insert is a
// first sighting that evicts the oldest id — the pool-side shape, where
// each request, push and transfer from 256 senders passes the window.
void BM_TxnWindowInsert(benchmark::State& state) {
  core::TxnWindow window(core::TxnWindow::kDefaultCapacity);
  std::uint64_t seq = 0;
  auto next_txn = [&seq] {
    ++seq;
    return core::make_txn_id(static_cast<std::int32_t>(seq % 256), 0,
                             seq / 256);
  };
  for (std::size_t i = 0; i < window.capacity(); ++i) window.insert(next_txn());
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.insert(next_txn()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnWindowInsert);

// Many receive windows at once, so inserts see the working set of a
// whole run instead of one window hot in L1. Ids are unique across all
// windows, so every insert is a first sighting.
//  full_pools_362: 362 full default windows (federated_burst's pools)
//    take fresh ids round robin from 256 interleaved senders; each
//    insert evicts that window's oldest id.
//  fresh_nodes_8192: 8192 default windows are built, take 50 ids each
//    in round-robin order (classic_steady's node side), and are torn
//    down; construction and destruction are timed with the inserts.
void BM_TxnWindowInsertMany(benchmark::State& state, bool fresh) {
  const std::size_t count = fresh ? 8192 : 362;
  std::uint64_t seq = 0;
  auto next_txn = [&seq] {
    ++seq;
    return core::make_txn_id(static_cast<std::int32_t>(seq % 256), 0,
                             seq / 256);
  };
  if (fresh) {
    constexpr int kIdsPerWindow = 50;
    for (auto _ : state) {
      std::vector<core::TxnWindow> windows;
      windows.reserve(count);
      for (std::size_t w = 0; w < count; ++w) windows.emplace_back();
      for (int r = 0; r < kIdsPerWindow; ++r)
        for (core::TxnWindow& window : windows)
          benchmark::DoNotOptimize(window.insert(next_txn()));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(count) * kIdsPerWindow);
    return;
  }
  std::vector<core::TxnWindow> windows(count);
  for (std::size_t i = 0; i < core::TxnWindow::kDefaultCapacity; ++i)
    for (core::TxnWindow& window : windows) window.insert(next_txn());
  std::size_t w = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(windows[w].insert(next_txn()));
    if (++w == count) w = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TxnWindowInsertMany, full_pools_362, false);
BENCHMARK_CAPTURE(BM_TxnWindowInsertMany, fresh_nodes_8192, true);

void BM_NetworkRoundTrip(benchmark::State& state) {
  // One shard: deliveries are scheduled directly on the one heap.
  sim::ShardedSimulator engine(/*shards=*/1, /*lookahead=*/1);
  sim::Simulator& sim = engine.shard(0);
  net::Network net(engine, net::NetworkConfig{});
  std::uint64_t delivered = 0;
  net.register_endpoint(1, [&](const net::Message& m) {
    ++delivered;
    net.send(1, 0, core::PowerGrant{42.0, m.id, -1});
  });
  net.register_endpoint(0, [&](const net::Message&) { ++delivered; });
  for (auto _ : state) {
    net.send(0, 1, core::PowerRequest{false, 42.0, 1});
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_NetworkRoundTrip);

void BM_CodecEncode(benchmark::State& state) {
  core::PowerRequest request;
  request.urgent = true;
  request.alpha_watts = 42.0;
  request.txn_id = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode(net::WirePayload{request}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  auto bytes = net::encode(net::WirePayload{core::PowerGrant{30.0, 7, -1}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecDecode);

void BM_TraceHash(benchmark::State& state) {
  // Per-event cost of the trace-hash accumulate (simulator.hpp): a
  // murmur3 finalizer plus a wrapping add, branch-free, on every
  // executed event. This has to stay invisible next to the ~100 ns heap
  // pop it rides on.
  std::uint64_t hash = 0;
  common::Ticks t = 0;
  for (auto _ : state) {
    hash += sim::trace_mix(static_cast<std::uint64_t>(++t));
  }
  benchmark::DoNotOptimize(hash);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceHash);

void BM_ShardWindowMerge(benchmark::State& state) {
  // The sharded fabric's merge path: stage a burst of sends from the
  // barrier context, then run one window cycle — canonical
  // (arrival, id, duplicate) sort, flush into 4 destination shards,
  // parallel delivery. Items are delivered messages.
  constexpr int kShards = 4;
  constexpr int kNodes = 64;
  constexpr int kBurst = 256;
  net::NetworkConfig cfg;
  cfg.latency.floor = common::from_millis(0.05);
  sim::ShardedSimulator engine(kShards, cfg.latency.effective_floor());
  std::vector<int> shard_of(kNodes);
  for (int i = 0; i < kNodes; ++i) shard_of[i] = i * kShards / kNodes;
  net::Network net(engine, cfg, shard_of);
  std::uint64_t delivered = 0;
  for (int i = 0; i < kNodes; ++i) {
    net.register_endpoint(i,
                          [&delivered](const net::Message&) { ++delivered; });
  }
  common::Ticks horizon = 0;
  std::uint64_t txn = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      net.send(i % kNodes, (i * 7 + 1) % kNodes, core::PowerPush{1.0, ++txn});
    }
    horizon += common::from_millis(1.0);
    engine.run_until(horizon);
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_ShardWindowMerge);

void BM_ArenaSweep(benchmark::State& state) {
  // Per-node cost of one epoch sweep through the flat arena's columns
  // with active-set scheduling off: every node materializes, evaluates
  // its cap-vs-measured band, and (in steady state) does nothing. This
  // is the brute-force floor the active set improves on — the columnar
  // kernel itself, heap events excluded (one sweep event per epoch
  // regardless of N).
  const int nodes = static_cast<int>(state.range(0));
  cluster::ClusterConfig cc;
  cc.manager = cluster::ManagerKind::kPenelope;
  cc.n_nodes = nodes;
  cc.per_socket_cap_watts = 60.0;
  cc.measurement_noise_watts = 0.0;
  cc.federation_pools = static_cast<int>(std::lround(
      std::sqrt(static_cast<double>(nodes))));
  cc.arena_active_set = false;
  std::vector<workload::WorkloadProfile> profiles;
  for (int i = 0; i < nodes; ++i) {
    workload::WorkloadProfile p;
    p.name = "x";
    p.phases.push_back(
        workload::Phase{"hot", i % 2 ? 240.0 : 100.0, 1e9});
    profiles.push_back(std::move(p));
  }
  cluster::Cluster cl(cc, std::move(profiles));
  cl.run_for(5.0);  // warm up past the initial shed/request wave
  double t = 5.0;
  for (auto _ : state) {
    t += 1.0;
    cl.run_for(1.0);
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_ArenaSweep)->Arg(4096)->Arg(65536);

void BM_ActiveSetSkip(benchmark::State& state) {
  // The same steady-state arena with active-set scheduling on: after
  // the shed wave settles the dirty bitsets go empty, so an epoch sweep
  // is a word-scan over zeros plus a wake-heap peek. Items are still
  // nodes — the per-node cost should collapse toward the memory
  // bandwidth of reading N/64 bitset words.
  const int nodes = static_cast<int>(state.range(0));
  cluster::ClusterConfig cc;
  cc.manager = cluster::ManagerKind::kPenelope;
  cc.n_nodes = nodes;
  cc.per_socket_cap_watts = 60.0;
  cc.measurement_noise_watts = 0.0;
  cc.federation_pools = static_cast<int>(std::lround(
      std::sqrt(static_cast<double>(nodes))));
  std::vector<workload::WorkloadProfile> profiles;
  for (int i = 0; i < nodes; ++i) {
    workload::WorkloadProfile p;
    p.name = "steady";
    p.phases.push_back(workload::Phase{"hot", 120.0, 1e9});
    profiles.push_back(std::move(p));
  }
  cluster::Cluster cl(cc, std::move(profiles));
  cl.run_for(5.0);
  double t = 5.0;
  for (auto _ : state) {
    t += 1.0;
    cl.run_for(1.0);
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_ActiveSetSkip)->Arg(4096)->Arg(65536);

void BM_ClusterSimulatedSecond(benchmark::State& state) {
  // Cost of one virtual second of a Penelope cluster at the given node
  // count — the number that bounds the scale study's wall time.
  const int nodes = static_cast<int>(state.range(0));
  cluster::ClusterConfig cc;
  cc.manager = cluster::ManagerKind::kPenelope;
  cc.n_nodes = nodes;
  cc.per_socket_cap_watts = 60.0;
  cc.measurement_noise_watts = 0.0;
  std::vector<workload::WorkloadProfile> profiles;
  for (int i = 0; i < nodes; ++i) {
    workload::WorkloadProfile p;
    p.name = "x";
    p.phases.push_back(
        workload::Phase{"hot", i % 2 ? 240.0 : 100.0, 1e9});
    profiles.push_back(std::move(p));
  }
  cluster::Cluster cl(cc, std::move(profiles));
  for (auto _ : state) {
    cl.run_for(1.0);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_ClusterSimulatedSecond)->Arg(64)->Arg(256)->Arg(1056);

}  // namespace
