#include "cluster/arena.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"
#include "core/protocol.hpp"
#include "hierarchy/protocol.hpp"

namespace penelope::cluster {

namespace {
/// Watts below this are treated as zero by the federation planes: they
/// are float dust that would otherwise generate real messages.
constexpr double kWattDust = 1e-9;
}  // namespace

FederatedArena::FederatedArena(
    const ArenaConfig& config, const hierarchy::FederationTopology& topo,
    net::Network& net, ClusterMetrics& metrics, SimOf sim_of,
    std::vector<workload::WorkloadProfile> profiles,
    OnComplete on_complete)
    : config_(config),
      topo_(topo),
      net_(net),
      metrics_(metrics),
      sim_of_(std::move(sim_of)),
      on_complete_(std::move(on_complete)),
      model_(config.perf),
      base_(static_cast<net::NodeId>(config.n_nodes)) {
  const auto n = static_cast<std::size_t>(config_.n_nodes);
  PEN_CHECK(config_.n_nodes > 0);
  PEN_CHECK(topo_.n_nodes == config_.n_nodes);
  PEN_CHECK(profiles.size() == n);
  PEN_CHECK(config_.safe_range.contains(config_.initial_cap_watts));
  if (config_.federation.period <= 0)
    config_.federation.period = config_.period;
  if (config_.request_timeout <= 0)
    config_.request_timeout = config_.period;

  cap_.assign(n, config_.initial_cap_watts);
  energy_j_.assign(n, 0.0);
  anchor_at_.assign(n, 0);
  demand_.assign(n, 0.0);
  delivered_.assign(n, 0.0);
  speed_.assign(n, 0.0);
  phase_first_.resize(n);
  phase_count_.resize(n);
  phase_idx_.assign(n, 0);
  work_left_.assign(n, 0.0);
  work_done_.assign(n, 0.0);
  work_total_.assign(n, 0.0);
  done_.assign(n, 0);
  crashed_.assign(n, 0);
  incarnation_.assign(n, 1);
  outstanding_txn_.assign(n, 0);
  outstanding_sent_at_.assign(n, 0);
  wake_at_.assign(n, 0);
  req_seq_.assign(n, 0);
  push_seq_.assign(n, 0);
  dedup_.assign(n * kDedupRing, 0);
  dedup_next_.assign(n, 0);

  std::size_t total_phases = 0;
  for (const auto& profile : profiles) total_phases += profile.phases.size();
  phase_demand_.reserve(total_phases);
  phase_work_.reserve(total_phases);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& phases = profiles[i].phases;
    PEN_CHECK(!phases.empty());
    phase_first_[i] = static_cast<std::int32_t>(phase_demand_.size());
    phase_count_[i] = static_cast<std::int32_t>(phases.size());
    for (const auto& phase : phases) {
      phase_demand_.push_back(phase.demand_watts);
      phase_work_.push_back(phase.work_seconds);
      work_total_[i] += phase.work_seconds;
    }
    work_left_[i] = phase_work_[static_cast<std::size_t>(phase_first_[i])];
    refresh_rate(static_cast<int>(i));
  }

  const auto pools = static_cast<std::size_t>(topo_.total_pools);
  pool_available_.assign(pools, 0.0);
  pool_deficit_accum_.assign(pools, 0.0);
  pool_pending_up_.assign(pools, 0.0);
  pool_last_report_seq_.assign(pools, 0);
  // Pool windows fill in the first burst, so their rings are allocated
  // here, keeping the set-up's allocation profile (core/txn_window.hpp).
  pool_window_.reserve(pools);
  for (std::size_t p = 0; p < pools; ++p)
    pool_window_.emplace_back().reserve();
  pool_req_seq_.assign(pools, 0);
  pool_push_seq_.assign(pools, 0);
  pool_inflow_flow_.assign(pools, 0);
  pool_deficit_flow_.assign(pools, 0);
  pool_pending_flow_.assign(pools, 0);

  // One endpoint handler for the whole pool range and one for the node
  // range (each reads msg.dst); the decider itself runs from the epoch
  // sweeps below, not from per-node timers. Pools hold the highest ids,
  // so registering them first sizes the endpoint table once.
  if (topo_.total_pools > 0) {
    net_.register_endpoint_range(
        base_, pool_node_id(topo_.total_pools),
        [this](const net::Message& msg) {
          handle_pool_message(static_cast<int>(msg.dst - base_), msg);
        });
  }
  if (config_.n_nodes > 0) {
    net_.register_endpoint_range(0, config_.n_nodes,
                                 [this](const net::Message& msg) {
                                   handle_node_message(msg.dst, msg);
                                 });
  }

  // Slices: shard_of is contiguous monotone, so each engine owns exactly
  // one run of NodeIds (at sim_jobs=1 the one heap owns all of them).
  // One periodic sweep-lane event per slice replaces the old N periodic
  // node timers; every slice sweeps at ticks 1, 1+period, 1+2*period, …
  // so every shard count fires the same epochs at the same virtual times.
  for (int i = 0; i < config_.n_nodes; ++i) {
    sim::Simulator* engine = &sim_of_(i);
    if (slices_.empty() || slices_.back().sim != engine) {
      for (const Slice& prior : slices_) PEN_CHECK(prior.sim != engine);
      Slice sl;
      sl.first = i;
      sl.last = i + 1;
      sl.sim = engine;
      slices_.push_back(std::move(sl));
    } else {
      slices_.back().last = i + 1;
    }
  }
  for (std::size_t si = 0; si < slices_.size(); ++si) {
    Slice& sl = slices_[si];
    const auto len = static_cast<std::size_t>(sl.last - sl.first);
    // Everyone starts dirty: the first sweep evaluates the whole
    // population, after which equilibrium nodes drop out.
    sl.dirty.assign((len + 63) / 64, ~std::uint64_t{0});
    if (len % 64 != 0)
      sl.dirty.back() = ~std::uint64_t{0} >> (64 - (len % 64));
    sl.wakes.reserve(std::min<std::size_t>(len, 1024));
    sl.sim->schedule_periodic_sweep(
        1, config_.period,
        [this, si](common::Ticks now) { sweep(si, now); });
  }
  for (int p = 0; p < topo_.total_pools; ++p) {
    net::NodeId pid = pool_node_id(p);
    sim_of_(pid).schedule_periodic(
        config_.federation.period, config_.federation.period,
        [this, p](common::Ticks now) { pool_tick(p, now); });
  }
}

void FederatedArena::refresh_rate(int node) {
  auto i = static_cast<std::size_t>(node);
  if (done_[i] || crashed_[i]) {
    demand_[i] = 0.0;
    delivered_[i] = 0.0;
    speed_[i] = 0.0;
    return;
  }
  double demand = phase_demand_[static_cast<std::size_t>(phase_first_[i] +
                                                         phase_idx_[i])];
  double delivered = std::min(cap_[i], demand);
  demand_[i] = demand;
  delivered_[i] = delivered;
  speed_[i] = model_.speed(delivered, demand);
}

void FederatedArena::materialize(int node, common::Ticks t) {
  auto i = static_cast<std::size_t>(node);
  common::Ticks a = anchor_at_[i];
  if (t <= a) return;
  if (crashed_[i] || done_[i]) {
    anchor_at_[i] = t;
    return;
  }
  // Cross every phase boundary <= t. Each crossing is a pure function
  // of the previous anchor state (never of t), so crossing them one
  // sweep at a time (brute force) or all at once (lazy) produces
  // bit-identical columns — the active-set parity invariant. A starved
  // phase (speed 0) has no boundary: the anchor freezes there and
  // energy accrues in closed form at the cached delivered rate.
  double sp = speed_[i];
  while (sp > 0.0) {
    double phase_dt = work_left_[i] / sp;
    common::Ticks end_at = a + common::from_seconds(phase_dt);
    if (end_at > t) break;
    energy_j_[i] += delivered_[i] * phase_dt;
    work_done_[i] += work_left_[i];
    work_left_[i] = 0.0;
    a = end_at;
    if (++phase_idx_[i] >= phase_count_[i]) {
      done_[i] = 1;
      refresh_rate(node);
      anchor_at_[i] = a;
      if (on_complete_) on_complete_(node, a);
      return;
    }
    work_left_[i] = phase_work_[static_cast<std::size_t>(phase_first_[i] +
                                                         phase_idx_[i])];
    refresh_rate(node);
    sp = speed_[i];
  }
  anchor_at_[i] = a;
}

void FederatedArena::reanchor(int node, common::Ticks t) {
  materialize(node, t);
  auto i = static_cast<std::size_t>(node);
  if (!crashed_[i] && !done_[i] && t > anchor_at_[i]) {
    double dt = common::to_seconds(t - anchor_at_[i]);
    energy_j_[i] += delivered_[i] * dt;
    double w = speed_[i] * dt;
    if (w > 0.0) {
      if (w > work_left_[i]) w = work_left_[i];  // float guard
      work_left_[i] -= w;
      work_done_[i] += w;
    }
  }
  anchor_at_[i] = t;
}

FederatedArena::EvalView FederatedArena::eval(int node,
                                              common::Ticks t) const {
  auto i = static_cast<std::size_t>(node);
  EvalView v;
  v.energy_j = energy_j_[i];
  v.work_done = work_done_[i];
  if (crashed_[i] || done_[i]) return v;
  // Read-only mirror of materialize + the reanchor partial fold: same
  // expressions in the same order over local copies, so a query returns
  // exactly what a mutating advance to t would have stored.
  common::Ticks a = anchor_at_[i];
  double wl = work_left_[i];
  std::int32_t idx = phase_idx_[i];
  double delivered = delivered_[i];
  double sp = speed_[i];
  while (sp > 0.0) {
    double phase_dt = wl / sp;
    common::Ticks end_at = a + common::from_seconds(phase_dt);
    if (end_at > t) break;
    v.energy_j += delivered * phase_dt;
    v.work_done += wl;
    a = end_at;
    if (++idx >= phase_count_[i]) return v;  // virtually done: power 0
    auto slot = static_cast<std::size_t>(phase_first_[i] + idx);
    wl = phase_work_[slot];
    double demand = phase_demand_[slot];
    delivered = std::min(cap_[i], demand);
    sp = model_.speed(delivered, demand);
  }
  if (t > a) {
    double dt = common::to_seconds(t - a);
    v.energy_j += delivered * dt;
    double w = sp * dt;
    if (w > 0.0) {
      if (w > wl) w = wl;
      v.work_done += w;
    }
  }
  v.power = delivered;
  return v;
}

double FederatedArena::node_demand(int node) const {
  return demand_[static_cast<std::size_t>(node)];
}

double FederatedArena::node_power(int node, common::Ticks now) const {
  return eval(node, now).power;
}

double FederatedArena::node_fraction_complete(int node,
                                              common::Ticks now) const {
  auto i = static_cast<std::size_t>(node);
  if (done_[i]) return 1.0;
  if (work_total_[i] <= 0.0) return 0.0;
  return std::min(1.0, eval(node, now).work_done / work_total_[i]);
}

double FederatedArena::cap_total() const {
  double total = 0.0;
  for (double cap : cap_) total += cap;
  return total;
}

double FederatedArena::pool_total() const {
  double total = 0.0;
  for (double avail : pool_available_) total += avail;
  return total;
}

double FederatedArena::total_energy_joules(common::Ticks now) const {
  // Node-index order, independent of slice layout: the summation order
  // (and hence the float result) is identical at any sim_jobs and in
  // both sweep modes.
  double total = 0.0;
  for (int i = 0; i < config_.n_nodes; ++i) total += eval(i, now).energy_j;
  return total;
}

FederatedArena::NodeSample FederatedArena::sample_node(
    int node, common::Ticks now) const {
  auto i = static_cast<std::size_t>(node);
  EvalView v = eval(node, now);
  return NodeSample{cap_[i], demand_[i], v.power, v.energy_j};
}

bool FederatedArena::node_in_active_set(int node) const {
  const Slice& s = slices_[slice_index_of(node)];
  auto rel = static_cast<std::size_t>(node - s.first);
  return (s.dirty[rel >> 6] >> (rel & 63)) & 1;
}

int FederatedArena::active_set_size() const {
  int count = 0;
  for (const Slice& s : slices_)
    for (std::uint64_t word : s.dirty)
      count += static_cast<int>(__builtin_popcountll(word));
  return count;
}

std::size_t FederatedArena::slice_index_of(int node) const {
  std::size_t s = 0;
  while (node >= slices_[s].last) ++s;
  return s;
}

void FederatedArena::mark_dirty(int node) {
  Slice& s = slices_[slice_index_of(node)];
  auto rel = static_cast<std::size_t>(node - s.first);
  s.dirty[rel >> 6] |= std::uint64_t{1} << (rel & 63);
}

void FederatedArena::schedule_wake(Slice& s, int node, common::Ticks now) {
  auto i = static_cast<std::size_t>(node);
  if (done_[i] || crashed_[i]) return;
  common::Ticks wake = 0;
  if (speed_[i] > 0.0) {
    wake = anchor_at_[i] + common::from_seconds(work_left_[i] / speed_[i]);
    if (wake <= now) wake = now + 1;  // rounding guard
  }
  if (outstanding_txn_[i] != 0) {
    common::Ticks timeout_at =
        outstanding_sent_at_[i] + config_.request_timeout;
    if (wake == 0 || timeout_at < wake) wake = timeout_at;
  }
  if (wake == 0) return;  // nothing will ever change on its own
  // An earlier-or-equal wake already queued covers this one: it fires
  // first, the tick re-evaluates, and any later boundary re-queues then.
  if (wake_at_[i] != 0 && wake_at_[i] <= wake) return;
  wake_at_[i] = wake;
  s.wakes.push_back({wake, static_cast<std::int32_t>(node)});
  std::push_heap(s.wakes.begin(), s.wakes.end(), std::greater<>{});
}

void FederatedArena::sweep(std::size_t slice, common::Ticks now) {
  Slice& s = slices_[slice];
  // One progress beat per slice epoch, even when every node is at
  // equilibrium (an idle-but-deciding arena is alive, not wedged).
  metrics_.record_decider_step();
  if (!config_.active_set) {
    // Brute force: tick every node in index order. Kept branch-light and
    // prefetched — this is also the first-epoch shape of the active-set
    // path, and the baseline the parity suite compares against.
    for (int node = s.first; node < s.last; ++node) {
      if (node + 16 < s.last) {
        auto ahead = static_cast<std::size_t>(node + 16);
        __builtin_prefetch(&cap_[ahead]);
        __builtin_prefetch(&work_left_[ahead]);
        __builtin_prefetch(&outstanding_txn_[ahead]);
      }
      node_tick(node, now, s);
    }
    return;
  }
  // Wakes due by now re-enter the active set. Pop order does not matter
  // (set-union into the bitset); stale entries — superseded by an
  // earlier wake that already fired and re-evaluated the node — are
  // identified by wake_at_ mismatch and dropped.
  while (!s.wakes.empty() && s.wakes.front().at <= now) {
    std::pop_heap(s.wakes.begin(), s.wakes.end(), std::greater<>{});
    Slice::Wake w = s.wakes.back();
    s.wakes.pop_back();
    auto i = static_cast<std::size_t>(w.node);
    if (wake_at_[i] != w.at) continue;
    wake_at_[i] = 0;
    auto rel = static_cast<std::size_t>(w.node - s.first);
    s.dirty[rel >> 6] |= std::uint64_t{1} << (rel & 63);
  }
  // Walk set bits in index order. Words are claimed (zeroed) before
  // their ticks run so a tick that acted can re-mark itself dirty for
  // the next epoch.
  const int n_words = static_cast<int>(s.dirty.size());
  for (int w = 0; w < n_words; ++w) {
    std::uint64_t bits = s.dirty[static_cast<std::size_t>(w)];
    if (bits == 0) continue;
    s.dirty[static_cast<std::size_t>(w)] = 0;
    const int word_base = s.first + w * 64;
    do {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      if (bits != 0) {
        auto next = static_cast<std::size_t>(word_base +
                                             __builtin_ctzll(bits));
        __builtin_prefetch(&cap_[next]);
        __builtin_prefetch(&work_left_[next]);
      }
      node_tick(word_base + bit, now, s);
    } while (bits != 0);
  }
}

bool FederatedArena::first_sighting(int node, std::uint64_t txn) {
  if (txn == core::kNoTxn) return true;
  auto* ring = &dedup_[static_cast<std::size_t>(node) * kDedupRing];
  for (int k = 0; k < kDedupRing; ++k) {
    if (ring[k] == txn) return false;
  }
  auto i = static_cast<std::size_t>(node);
  ring[dedup_next_[i]] = txn;
  dedup_next_[i] =
      static_cast<std::uint8_t>((dedup_next_[i] + 1) % kDedupRing);
  return true;
}

void FederatedArena::push_to_leaf(int node, double watts) {
  if (watts <= kWattDust) return;
  auto i = static_cast<std::size_t>(node);
  metrics_.grant_departed(watts);
  std::uint64_t txn = core::make_txn_id(node, 1, ++push_seq_[i]);
  net::NodeId leaf = pool_node_id(topo_.leaf_of_node[i]);
  auto& tracer = metrics_.tracer();
  if (tracer.enabled()) {
    // A push mints a new flow: these watts begin their journey here.
    tracer.bind(txn, txn);
    tracer.record(sim_of_(node).now(), txn, telemetry::FlowHopKind::kSource,
                  node, static_cast<std::int32_t>(leaf), watts, "push");
  }
  net_.send(node, leaf, core::PowerPush{watts, txn});
}

void FederatedArena::node_tick(int node, common::Ticks now, Slice& s) {
  auto i = static_cast<std::size_t>(node);
  if (crashed_[i]) return;  // stays out of the active set; recover re-marks
  materialize(node, now);

  // Request timeouts fold into the sweep: a timestamp comparison here
  // replaces the old schedule_after/cancel pair (two heap operations
  // per request). Granularity is the sweep period — a grant landing
  // after the deadline but before this epoch's sweep still resolves as
  // a turnaround, which both modes and every shard shape agree on.
  if (outstanding_txn_[i] != 0 &&
      now - outstanding_sent_at_[i] >= config_.request_timeout) {
    outstanding_txn_[i] = 0;
    metrics_.record_timeout();
  }

  const double demand = demand_[i];
  const double measured = delivered_[i];  // = min(cap, demand) while live
  double safe_min = config_.safe_range.min_watts;
  bool acted = false;
  if (cap_[i] - measured > config_.epsilon_watts) {
    // Excess above the sense band: shed down to measured + epsilon
    // (never below the safe floor) and bank the freed watts in the leaf.
    // Shedding never lowers cap below demand (new_cap >= measured +
    // epsilon and measured == demand here), so delivered/speed caches
    // stay valid without a refresh.
    double new_cap = std::max(safe_min, measured + config_.epsilon_watts);
    double freed = cap_[i] - new_cap;
    if (freed > kWattDust) {
      cap_[i] = new_cap;
      metrics_.record_release(now, freed, node);
      push_to_leaf(node, freed);
      acted = true;
    }
  } else if (demand > cap_[i] + config_.epsilon_watts &&
             outstanding_txn_[i] == 0) {
    double want = std::min(demand, config_.safe_range.max_watts) - cap_[i];
    if (want > kWattDust) {
      std::uint64_t txn = core::make_txn_id(node, 0, ++req_seq_[i]);
      outstanding_txn_[i] = txn;
      outstanding_sent_at_[i] = now;
      metrics_.record_request_sent();
      net_.send(node, pool_node_id(topo_.leaf_of_node[i]),
                core::PowerRequest{cap_[i] < config_.initial_cap_watts,
                                   want, txn});
      acted = true;
    }
  }

  if (!config_.active_set) return;
  if (acted) {
    // Something moved: stay in the active set and re-evaluate next epoch.
    auto rel = static_cast<std::size_t>(node - s.first);
    s.dirty[rel >> 6] |= std::uint64_t{1} << (rel & 63);
  } else {
    schedule_wake(s, node, now);
  }
}

void FederatedArena::handle_node_message(int node,
                                         const net::Message& msg) {
  const auto* grant = msg.as<core::PowerGrant>();
  if (grant == nullptr) return;  // nodes only ever receive grants
  auto i = static_cast<std::size_t>(node);
  common::Ticks now = sim_of_(node).now();
  if (!first_sighting(node, grant->txn_id)) {
    metrics_.record_duplicate_drop(grant->watts);
    return;
  }
  if (grant->watts > 0.0) metrics_.grant_arrived(grant->watts);
  if (outstanding_txn_[i] == grant->txn_id && grant->txn_id != 0) {
    outstanding_txn_[i] = 0;
    metrics_.record_turnaround(outstanding_sent_at_[i], now);
  } else {
    // Late grant after its timeout was recorded. Unlike the flat path
    // (which strands unmatched watts), the arena banks them:
    // first_sighting already guarantees at-most-once, so applying keeps
    // the watts in circulation without any double-count risk.
    metrics_.record_unknown_txn();
  }
  // Protocol state changed either way (the node may want to re-request
  // or shed next epoch), so it re-enters the active set.
  mark_dirty(node);
  if (grant->watts <= kWattDust) return;
  reanchor(node, now);
  double room = config_.safe_range.max_watts - cap_[i];
  double applied = std::min(grant->watts, std::max(0.0, room));
  if (applied > kWattDust) {
    cap_[i] += applied;
    refresh_rate(node);  // cap rose: delivered/speed may rise with it
    metrics_.record_apply(now, applied, node);
    auto& tracer = metrics_.tracer();
    if (tracer.enabled()) {
      tracer.record(now, tracer.flow_of(grant->txn_id),
                    telemetry::FlowHopKind::kSink, node,
                    static_cast<std::int32_t>(msg.src), applied, "apply");
    }
  }
  double overflow = grant->watts - applied;
  if (overflow > kWattDust) push_to_leaf(node, overflow);
}

void FederatedArena::handle_pool_message(int pool,
                                         const net::Message& msg) {
  auto p = static_cast<std::size_t>(pool);
  net::NodeId pid = pool_node_id(pool);
  auto& tracer = metrics_.tracer();
  if (const auto* req = msg.as<core::PowerRequest>()) {
    if (!pool_window_[p].insert(req->txn_id)) {
      metrics_.record_duplicate_drop(0.0);
      return;
    }
    double granted = std::min(req->alpha_watts, pool_available_[p]);
    if (granted < 0.0) granted = 0.0;
    pool_available_[p] -= granted;
    if (granted > 0.0) metrics_.grant_departed(granted);
    if (tracer.enabled() && granted > 0.0) {
      // The grant inherits the flow that last fed this pool, and the
      // node-side sink resolves it through the txn binding (PowerGrant
      // carries no flow on the wire).
      std::uint64_t flow = pool_inflow_flow_[p];
      tracer.bind(req->txn_id, flow);
      tracer.record(sim_of_(pid).now(), flow,
                    telemetry::FlowHopKind::kStep,
                    static_cast<std::int32_t>(pid),
                    static_cast<std::int32_t>(msg.src), granted, "grant");
    }
    // Always answer, even empty-handed: the requester resolves by grant
    // instead of timeout, and the unmet remainder joins the aggregated
    // deficit this pool reports upward.
    net_.send(pid, msg.src, core::PowerGrant{granted, req->txn_id, -1});
    double unmet = req->alpha_watts - granted;
    if (unmet > kWattDust) {
      pool_deficit_accum_[p] += unmet;
      // Demand-side flow: remember the first unmet request so the
      // deficit report up the tree can name what it is asking for.
      if (tracer.enabled() && pool_deficit_flow_[p] == 0)
        pool_deficit_flow_[p] = req->txn_id;
    }
  } else if (const auto* push = msg.as<core::PowerPush>()) {
    if (!pool_window_[p].insert(push->txn_id)) {
      metrics_.record_duplicate_drop(push->watts);
      return;
    }
    metrics_.grant_arrived(push->watts);
    pool_available_[p] += push->watts;
    if (tracer.enabled()) {
      std::uint64_t flow = tracer.flow_of(push->txn_id);
      if (flow != 0) pool_inflow_flow_[p] = flow;
      tracer.record(sim_of_(pid).now(), flow,
                    telemetry::FlowHopKind::kStep,
                    static_cast<std::int32_t>(pid),
                    static_cast<std::int32_t>(msg.src), push->watts,
                    "bank");
    }
  } else if (const auto* report = msg.as<hierarchy::FederatedRequest>()) {
    // Aggregated child deficit: overwrite, never accumulate (the child
    // re-derives its whole deficit every period). The per-child seq
    // guard drops reordered stale reports; duplicates are idempotent.
    int child = static_cast<int>(msg.src) - base_;
    PEN_CHECK(child >= 0 && child < topo_.total_pools);
    std::uint64_t seq = core::txn_seq(report->txn_id);
    auto c = static_cast<std::size_t>(child);
    if (seq <= pool_last_report_seq_[c]) return;
    pool_last_report_seq_[c] = seq;
    pool_pending_up_[c] = report->deficit_watts;
    if (tracer.enabled()) {
      pool_pending_flow_[c] = report->flow;
      tracer.record(sim_of_(pid).now(), report->flow,
                    telemetry::FlowHopKind::kStep,
                    static_cast<std::int32_t>(pid),
                    static_cast<std::int32_t>(msg.src),
                    report->deficit_watts, "deficit_in");
    }
  } else if (const auto* xfer = msg.as<hierarchy::FederatedTransfer>()) {
    if (!pool_window_[p].insert(xfer->txn_id)) {
      metrics_.record_duplicate_drop(xfer->watts);
      return;
    }
    metrics_.grant_arrived(xfer->watts);
    pool_available_[p] += xfer->watts;
    if (tracer.enabled()) {
      if (xfer->flow != 0) pool_inflow_flow_[p] = xfer->flow;
      tracer.record(sim_of_(pid).now(), xfer->flow,
                    telemetry::FlowHopKind::kStep,
                    static_cast<std::int32_t>(pid),
                    static_cast<std::int32_t>(msg.src), xfer->watts,
                    "xfer_in");
    }
  }
}

void FederatedArena::pool_tick(int pool, common::Ticks now) {
  auto p = static_cast<std::size_t>(pool);
  net::NodeId pid = pool_node_id(pool);
  auto& tracer = metrics_.tracer();

  // Serve children's reported deficits in child-index order (the
  // deterministic tie-break), one aggregated transfer per needy child.
  double unmet_children = 0.0;
  std::uint64_t unmet_flow = 0;  // first still-hungry child's demand flow
  for (int child : topo_.children[p]) {
    auto c = static_cast<std::size_t>(child);
    double want = pool_pending_up_[c];
    pool_pending_up_[c] = 0.0;  // children re-report every period
    std::uint64_t child_flow = pool_pending_flow_[c];
    pool_pending_flow_[c] = 0;
    if (want <= kWattDust) continue;
    double give = std::min(want, pool_available_[p]);
    if (give > kWattDust) {
      pool_available_[p] -= give;
      metrics_.grant_departed(give);
      metrics_.record_federated_transfer(give);
      std::uint64_t txn = core::make_txn_id(pid, 1, ++pool_push_seq_[p]);
      std::uint64_t flow = 0;
      if (tracer.enabled()) {
        flow = pool_inflow_flow_[p] != 0 ? pool_inflow_flow_[p] : txn;
        tracer.record(now, flow, telemetry::FlowHopKind::kStep,
                      static_cast<std::int32_t>(pid),
                      static_cast<std::int32_t>(pool_node_id(child)),
                      give, "xfer_down");
      }
      net_.send(pid, pool_node_id(child),
                hierarchy::FederatedTransfer{give, txn, flow});
    }
    if (want - std::max(give, 0.0) > kWattDust && unmet_flow == 0)
      unmet_flow = child_flow;
    unmet_children += want - std::max(give, 0.0);
  }

  // Residual deficit (leaves: unmet node requests; inner: unmet child
  // reports) federates up as ONE aggregated report; otherwise surplus
  // above the low-water buffer federates up as ONE transfer. The root
  // holds its surplus as the global buffer.
  double deficit =
      topo_.is_leaf(pool) ? pool_deficit_accum_[p] : unmet_children;
  pool_deficit_accum_[p] = 0.0;
  std::uint64_t deficit_flow =
      topo_.is_leaf(pool) ? pool_deficit_flow_[p] : unmet_flow;
  pool_deficit_flow_[p] = 0;
  deficit = std::max(0.0, deficit - pool_available_[p]);
  int up = topo_.parent[p];
  if (up < 0) return;
  if (deficit > kWattDust) {
    metrics_.record_federated_request();
    std::uint64_t txn = core::make_txn_id(pid, 0, ++pool_req_seq_[p]);
    std::uint64_t flow = 0;
    if (tracer.enabled()) {
      // Leaves mint the demand flow from the first unmet node request
      // (falling back to the report txn); inner pools thread through
      // the first still-hungry child's flow.
      flow = deficit_flow != 0 ? deficit_flow : txn;
      tracer.record(now, flow,
                    deficit_flow != 0 ? telemetry::FlowHopKind::kStep
                                      : telemetry::FlowHopKind::kSource,
                    static_cast<std::int32_t>(pid),
                    static_cast<std::int32_t>(pool_node_id(up)), deficit,
                    "deficit_up");
    }
    net_.send(pid, pool_node_id(up),
              hierarchy::FederatedRequest{deficit, txn, flow});
  } else {
    double surplus =
        pool_available_[p] - config_.federation.low_water_watts;
    if (surplus > kWattDust) {
      pool_available_[p] -= surplus;
      metrics_.grant_departed(surplus);
      metrics_.record_federated_transfer(surplus);
      std::uint64_t txn = core::make_txn_id(pid, 1, ++pool_push_seq_[p]);
      std::uint64_t flow = 0;
      if (tracer.enabled()) {
        flow = pool_inflow_flow_[p] != 0 ? pool_inflow_flow_[p] : txn;
        tracer.record(now, flow, telemetry::FlowHopKind::kStep,
                      static_cast<std::int32_t>(pid),
                      static_cast<std::int32_t>(pool_node_id(up)), surplus,
                      "xfer_up");
      }
      net_.send(pid, pool_node_id(up),
                hierarchy::FederatedTransfer{surplus, txn, flow});
    }
  }
}

void FederatedArena::crash_node(int node, common::Ticks now) {
  auto i = static_cast<std::size_t>(node);
  if (crashed_[i]) return;
  reanchor(node, now);  // fold the partial segment at pre-crash rates
  crashed_[i] = 1;
  refresh_rate(node);  // rates to zero; ticks skip crashed nodes
  outstanding_txn_[i] = 0;  // any in-flight grant strands via the fabric
  double safe_min = config_.safe_range.min_watts;
  double residue = cap_[i] - safe_min;
  cap_[i] = safe_min;
  metrics_.strand_residue_against(node, incarnation_[i], residue);
  net_.fail_node(node);
}

void FederatedArena::recover_node(int node, common::Ticks now) {
  auto i = static_cast<std::size_t>(node);
  if (!crashed_[i]) return;
  reanchor(node, now);  // no-op accounting; resets the advance anchor
  crashed_[i] = 0;
  std::uint32_t prev = incarnation_[i]++;
  net_.recover_node(node);
  refresh_rate(node);  // live again at the phase it crashed in
  mark_dirty(node);    // re-enters the active set next epoch
  // Reclaim this node's own pre-crash residue (plus any grants that
  // died against it while down — the drop handler tags those with the
  // same incarnation). Exactly-once: the tag is consumed here or never.
  double leftover = metrics_.reclaim_from(node, prev);
  if (leftover <= kWattDust) return;
  double room = config_.safe_range.max_watts - cap_[i];
  double applied = std::min(leftover, std::max(0.0, room));
  if (applied > kWattDust) {
    cap_[i] += applied;
    refresh_rate(node);
    metrics_.record_apply(now, applied, node);
  }
  double overflow = leftover - applied;
  if (overflow > kWattDust) push_to_leaf(node, overflow);
}

}  // namespace penelope::cluster
