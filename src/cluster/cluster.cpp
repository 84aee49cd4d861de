#include "cluster/cluster.hpp"

#include <algorithm>

#include "central/protocol.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "core/protocol.hpp"
#include "hierarchy/protocol.hpp"

namespace penelope::cluster {

const char* manager_name(ManagerKind kind) {
  switch (kind) {
    case ManagerKind::kFair: return "Fair";
    case ManagerKind::kCentral: return "SLURM";
    case ManagerKind::kPenelope: return "Penelope";
    case ManagerKind::kHierarchical: return "PoDD";
  }
  return "??";
}

Cluster::Cluster(ClusterConfig config,
                 std::vector<workload::WorkloadProfile> profiles)
    : config_(config), rng_(config.seed) {
  PEN_CHECK(config_.n_nodes > 0);
  PEN_CHECK_MSG(static_cast<int>(profiles.size()) == config_.n_nodes,
                "need one workload profile per client node");
  if (config_.request_timeout == 0)
    config_.request_timeout = config_.period;
  if (config_.flight_recorder_capacity > 0)
    metrics_.recorder().enable(config_.flight_recorder_capacity);
  if (config_.flow_tracer_capacity > 0)
    metrics_.tracer().enable(config_.flow_tracer_capacity);

  if (config_.federation_pools > 0 &&
      config_.manager != ManagerKind::kPenelope) {
    PEN_LOG_WARN_RATED(
        16,
        "federation_pools=%d ignored: pool federation composes with the "
        "Penelope manager only",
        config_.federation_pools);
    config_.federation_pools = 0;
  }
  if (config_.federation_pools > 0 && config_.membership_enabled) {
    PEN_LOG_WARN_RATED(
        16,
        "membership layer is not implemented on the federated arena "
        "path; disabling it (churn still conserves via epoch-tagged "
        "self-reclamation)");
    config_.membership_enabled = false;
  }
  if (config_.federation_pools > 0) {
    fed_topo_ = std::make_unique<hierarchy::FederationTopology>(
        hierarchy::FederationTopology::build(config_.n_nodes,
                                             config_.federation_pools,
                                             config_.federation_fanout));
  }

  int jobs = config_.sim_jobs < 1 ? 1 : config_.sim_jobs;
  if (jobs > config_.n_nodes) jobs = config_.n_nodes;
  if (jobs > 1 && config_.membership_enabled) {
    PEN_LOG_WARN_RATED(
        16,
        "sim_jobs=%d requested with the membership layer enabled; peer "
        "reclamation is cross-shard protocol feedback with no "
        "conservative window, clamping sim_jobs to 1",
        jobs);
    jobs = 1;
  }
  config_.sim_jobs = jobs;

  // Contiguous balanced shard assignment (node i -> shard i*K/N); the
  // server node (id N, central managers only) rides the last shard.
  // The conservative window width is the network's latency floor: no
  // message can cross shards faster than that.
  net::NetworkConfig net_config = config_.network;
  net_config.seed = config_.seed ^ 0x85ebca6bu;
  engine_ = std::make_unique<sim::ShardedSimulator>(
      jobs, net_config.latency.effective_floor());
  shard_of_.resize(static_cast<std::size_t>(config_.n_nodes) + 1);
  for (int i = 0; i < config_.n_nodes; ++i)
    shard_of_[static_cast<std::size_t>(i)] =
        static_cast<int>(static_cast<std::int64_t>(i) * jobs /
                         config_.n_nodes);
  shard_of_[static_cast<std::size_t>(config_.n_nodes)] = jobs - 1;
  if (fed_topo_) {
    // Pool ids live above the client range (pool p -> id N + p, the
    // server slot is unused under Penelope). Each pool rides the
    // shard of the first node its subtree covers, so leaf traffic is
    // mostly intra-shard.
    shard_of_.resize(static_cast<std::size_t>(config_.n_nodes) +
                     static_cast<std::size_t>(fed_topo_->total_pools));
    for (int p = 0; p < fed_topo_->total_pools; ++p) {
      shard_of_[static_cast<std::size_t>(config_.n_nodes + p)] =
          shard_of_[static_cast<std::size_t>(
              fed_topo_->representative_node[static_cast<std::size_t>(
                  p)])];
    }
  }
  net_ = std::make_unique<net::Network>(*engine_, net_config, shard_of_);
  metrics_.configure_contexts(engine_->contexts(), config_.n_nodes);

  // Pre-size the event heaps before any actor arms its first timer. On
  // the classic path a node keeps roughly four events pending at once
  // (decider tick, request timeout, pool service completion, an
  // in-flight delivery), plus slack for the control plane. The arena
  // path carries no per-node timers at all (one epoch sweep per shard,
  // timeouts folded into the sweep), so its heap holds in-flight
  // deliveries only: ~2 per node covers a request/grant pair in flight,
  // plus pool-tick and delivery slack per pool. The audit task feeds
  // the observed high-water mark back out through the metrics registry
  // so these estimates stay honest.
  const std::size_t pending_per_node = fed_topo_ ? 2 : 4;
  const auto pool_slack =
      fed_topo_ ? 4 * static_cast<std::size_t>(fed_topo_->total_pools) : 0;
  const auto nodes_per_shard =
      static_cast<std::size_t>((config_.n_nodes + jobs - 1) / jobs);
  engine_->reserve(pending_per_node * nodes_per_shard + pool_slack + 64,
                   /*control=*/256);

  // Watts lost inside the fabric (dropped grant/donation messages) are
  // stranded: they left one cap and will never reach another. Drops
  // against a crashed client node additionally carry a (node,
  // incarnation) reclaim tag, so the membership layer can return them
  // to circulation once the death is confirmed. Loss and partition
  // drops stay untagged: the recipient may well be alive, and a false
  // suspicion must never be able to reclaim a live node's watts.
  net_->set_drop_handler([this](const net::Message& msg,
                                net::DropReason reason) {
    auto strand = [this, &msg, reason](double watts,
                                       std::uint64_t txn_id) {
      if (watts <= 0.0) return;
      if (reason == net::DropReason::kDeadNode && msg.dst >= 0 &&
          msg.dst < config_.n_nodes) {
        metrics_.strand_in_flight_against(
            msg.dst, node_incarnation(msg.dst), watts);
      } else {
        metrics_.watts_stranded(watts);
      }
      metrics_.recorder().record(now_ticks(), txn_id,
                                 telemetry::TxnEventKind::kStranded,
                                 msg.dst, msg.src, watts);
    };
    if (const auto* grant = msg.as<core::PowerGrant>()) {
      strand(grant->watts, grant->txn_id);
    } else if (const auto* push = msg.as<core::PowerPush>()) {
      strand(push->watts, push->txn_id);
    } else if (const auto* cgrant = msg.as<central::CentralGrant>()) {
      strand(cgrant->watts, cgrant->txn_id);
    } else if (const auto* donation = msg.as<central::CentralDonation>()) {
      strand(donation->watts, donation->txn_id);
    } else if (const auto* xfer = msg.as<hierarchy::FederatedTransfer>()) {
      // Pool destinations sit above the client id range and never die,
      // so a lost inter-pool transfer strands untagged (fabric loss).
      strand(xfer->watts, xfer->txn_id);
    }
  });

  completions_.resize(static_cast<std::size_t>(config_.n_nodes));
  current_budget_ = config_.system_budget();
  build(std::move(profiles));
  arm_faults();
  arm_churn();

  if (config_.watchdog_s > 0.0) {
    PEN_CHECK_MSG(config_.audit_interval > 0,
                  "watchdog_s needs the audit task to piggyback on");
  }
  audit_task_ = std::make_unique<sim::PeriodicTask>(
      control_sim(), config_.audit_interval, config_.audit_interval,
      [this](common::Ticks now) {
        audit_summary_.observe(audit());
        metrics_.note_pending_events_high_water(
            static_cast<double>(pending_high_water()));
        // The watchdog rides the audit cadence — no events of its own,
        // so arming it cannot perturb a pinned trace.
        if (config_.watchdog_s > 0.0) watchdog_check(now);
      });

  if (config_.trace_interval > 0) {
    trace_task_ = std::make_unique<sim::PeriodicTask>(
        control_sim(), config_.trace_interval, config_.trace_interval,
        [this](common::Ticks now) {
          for (int i = 0; i < config_.n_nodes; ++i) {
            TraceSample sample;
            sample.at = now;
            sample.node = i;
            sample.cap_watts = node_cap(i);
            sample.pool_watts = node_pool_watts(i);
            sample.power_watts = node_power(i);
            sample.demand_watts = node_demand(i);
            sample.fraction_complete = node_fraction_complete(i);
            trace_.add(sample);
          }
        });
  }

  if (config_.series_interval > 0) {
    // Control-plane sampling: runs at barriers when sharded, with every
    // shard quiescent, so reads are race-free and timestamps identical
    // at any sim_jobs. Handles are resolved once, here, so the sampler
    // itself never hashes a name (and, once rings are full, never
    // allocates — the ZeroOverheadGate pins this).
    series_.configure(config_.series_interval, config_.series_capacity);
    health_.configure(config_.health_epsilon);
    ts_delivered_ = series_.open("delivered_watts");
    ts_demand_ = series_.open("demand_watts");
    ts_cap_ = series_.open("cap_watts");
    ts_pool_ = series_.open("pool_watts");
    ts_stranded_ = series_.open("stranded_watts");
    ts_in_flight_ = series_.open("in_flight_watts");
    ts_energy_ = series_.open("energy_joules");
    ts_jain_ = series_.open("jain_index");
    if (fed_topo_) {
      // Per-pool occupancy: O(pools) series, never O(nodes).
      ts_pools_.reserve(static_cast<std::size_t>(fed_topo_->total_pools));
      for (int p = 0; p < fed_topo_->total_pools; ++p)
        ts_pools_.push_back(
            series_.open("pool_" + std::to_string(p) + "_watts"));
    }
    // Pre-lane ordering: when a sample instant collides with protocol
    // events (the 250 ms cadence hits pool ticks at whole seconds), the
    // sampler must observe the *pre-event* state in every engine. The
    // sharded engine already runs control events before same-timestamp
    // shard events; TaskOrder::kPre gives the serial engine the same
    // rule, so series/health content is bit-identical across sim_jobs.
    if (config_.manager == ManagerKind::kPenelope && !arena_) {
      // Telemetry mirror: dense per-node rows, refreshed only when the
      // owning actor marks its dirty byte. All rows start dirty so the
      // first sample populates them.
      mirror_rows_.resize(penelope_nodes_.size());
      mirror_dirty_.assign(penelope_nodes_.size(), 1);
      for (std::size_t i = 0; i < penelope_nodes_.size(); ++i)
        penelope_nodes_[i]->set_observer_dirty(&mirror_dirty_[i]);
    }
    sampler_task_ = std::make_unique<sim::PeriodicTask>(
        control_sim(), config_.series_interval, config_.series_interval,
        [this](common::Ticks now) { sample_telemetry(now); },
        sim::TaskOrder::kPre);
  }
}

void Cluster::sample_telemetry(common::Ticks now) {
  // ONE fused O(N) walk; everything the series, the health monitor,
  // and the conservation ledger need comes out of a single pass over
  // whichever actor vector this config uses. The obvious composition —
  // the public node_* accessors plus audit() plus total_energy_joules()
  // — walks the node set three times with a manager dispatch per read,
  // and measured >20% of events/sec on bench_parallel's sampler A/B;
  // fused it is a few percent. "Active" excludes completed and crashed
  // nodes: both legitimately idle near zero watts and would read as
  // unfairness.
  telemetry::HealthSample hs;
  hs.at = now;
  double node_pool = 0.0;       // per-node pool shares (classic Penelope)
  double retirement_debt = 0.0;
  bool first = true;
  auto integrate = [&](double cap, double demand, double pool, bool idle,
                       double delivered, double energy) {
    hs.cap_watts += cap;
    hs.demand_watts += demand;
    node_pool += pool;
    hs.energy_joules += energy;
    if (idle) return;
    ++hs.active_nodes;
    hs.delivered_sum += delivered;
    hs.delivered_sq_sum += delivered * delivered;
    if (first) {
      hs.delivered_min = hs.delivered_max = delivered;
      first = false;
    } else {
      hs.delivered_min = std::min(hs.delivered_min, delivered);
      hs.delivered_max = std::max(hs.delivered_max, delivered);
    }
  };
  if (arena_) {
    // One closed-form phase walk per node (sample_node fuses power and
    // energy); summation stays in node-index order so series content is
    // bit-identical at any sim_jobs and in either sweep mode.
    for (int i = 0; i < config_.n_nodes; ++i) {
      bool idle = arena_->node_done(i) || arena_->node_crashed(i);
      FederatedArena::NodeSample ns = arena_->sample_node(i, now);
      integrate(ns.cap, ns.demand, 0.0, idle, idle ? 0.0 : ns.power,
                ns.energy_j);
    }
  } else {
    switch (config_.manager) {
      case ManagerKind::kPenelope: {
        // Mirror path: re-snapshot only nodes whose state changed since
        // the last sample, then integrate the dense row array. The
        // closed-form extrapolation is SimulatedRapl::extrapolate — the
        // exact code peek() uses, so mirror and direct reads agree
        // bit for bit.
        const std::size_t n = mirror_rows_.size();
        if (n == 0) break;
        // Refresh scan with distance prefetch: a node tick dirties every
        // node at whole seconds, so dirty runs are long and the refresh
        // walk is latency-bound on the ~5 scattered actor cache lines it
        // snapshots. Prefetching the lines of the node 8 slots ahead
        // roughly halves the all-dirty refresh.
        const char* base0 =
            reinterpret_cast<const char*>(penelope_nodes_[0].get());
        const std::ptrdiff_t pf_rapl =
            reinterpret_cast<const char*>(
                &penelope_nodes_[0]->body().rapl()) -
            base0 + 64;
        const std::ptrdiff_t pf_pool =
            reinterpret_cast<const char*>(
                &penelope_nodes_[0]->node().pool()) -
            base0;
        const std::ptrdiff_t pf_cap =
            reinterpret_cast<const char*>(
                &penelope_nodes_[0]->node().decider()) -
            base0;
        constexpr std::size_t kAhead = 8;
        for (std::size_t i = 0; i < n; ++i) {
          if (i + kAhead < n && mirror_dirty_[i + kAhead]) {
            const char* p = reinterpret_cast<const char*>(
                penelope_nodes_[i + kAhead].get());
            __builtin_prefetch(p + pf_rapl);
            __builtin_prefetch(p + pf_pool);
            __builtin_prefetch(p + pf_cap);
            __builtin_prefetch(p + sizeof(PenelopeNodeActor) - 64);
          }
          if (mirror_dirty_[i]) {
            refresh_mirror_row(i);
            mirror_dirty_[i] = 0;
          }
        }
        const double tau = config_.rapl.tau_seconds;
        const double idle_watts = config_.rapl.idle_watts;
        for (const MirrorRow& r : mirror_rows_) {
          double target =
              std::max(idle_watts, std::min(r.demand, r.rapl_cap));
          double dt =
              now <= r.last ? 0.0 : common::to_seconds(now - r.last);
          auto pe = power::SimulatedRapl::extrapolate(
              r.power0, r.energy0, dt, target, tau);
          retirement_debt += r.debt;
          integrate(r.cap, r.demand, r.pool, r.idle != 0.0,
                    r.idle != 0.0 ? 0.0 : pe.power, pe.energy_joules);
        }
        break;
      }
      case ManagerKind::kFair:
        for (auto& node : fair_nodes_) {
          const auto& rapl = node->body().rapl();
          auto pe = rapl.peek(now);
          bool idle = node->body().app_done();
          integrate(node->cap(), rapl.demand(), 0.0, idle,
                    idle ? 0.0 : pe.power, pe.energy_joules);
        }
        break;
      case ManagerKind::kCentral:
      case ManagerKind::kHierarchical:
        for (auto& node : central_clients_) {
          const auto& rapl = node->body().rapl();
          auto pe = rapl.peek(now);
          bool idle = node->body().app_done() || node->crashed();
          retirement_debt += node->retirement_debt();
          integrate(node->cap(), rapl.demand(), 0.0, idle,
                    idle ? 0.0 : pe.power, pe.energy_joules);
        }
        break;
    }
  }
  hs.pool_watts =
      node_pool + (arena_ ? arena_->pool_total() : server_cache_watts());
  hs.stranded_watts = metrics_.stranded_watts();
  hs.suspicions = metrics_.nodes_suspected();
  // The conservation ledger, assembled from the same pass. Matches
  // audit() term for term (same per-node reads, same summation order)
  // without re-walking every node.
  ConservationAudit ledger;
  ledger.budget = current_budget_;
  ledger.retirement_debt = retirement_debt;
  ledger.in_flight = metrics_.in_flight_watts();
  ledger.stranded = metrics_.stranded_watts();
  if (arena_) {
    ledger.cap_total = arena_->cap_total();
    ledger.pool_total = arena_->pool_total();
  } else {
    ledger.cap_total = hs.cap_watts;
    ledger.pool_total = node_pool;
    ledger.server_cache = server_cache_watts();
  }
  hs.conservation_error = ledger.conservation_error();
  health_.observe(hs);

  ts_delivered_->sample(now, hs.delivered_sum);
  ts_demand_->sample(now, hs.demand_watts);
  ts_cap_->sample(now, hs.cap_watts);
  ts_pool_->sample(now, hs.pool_watts);
  ts_stranded_->sample(now, hs.stranded_watts);
  ts_in_flight_->sample(now, metrics_.in_flight_watts());
  ts_energy_->sample(now, hs.energy_joules);
  ts_jain_->sample(now,
                   telemetry::HealthMonitor::jain_index(
                       hs.active_nodes, hs.delivered_sum,
                       hs.delivered_sq_sum));
  for (std::size_t p = 0; p < ts_pools_.size(); ++p)
    ts_pools_[p]->sample(now,
                         arena_->pool_available(static_cast<int>(p)));
}

void Cluster::refresh_mirror_row(std::size_t i) {
  auto& node = *penelope_nodes_[i];
  const auto& rapl = node.body().rapl();
  auto anchor = rapl.anchor();
  MirrorRow& r = mirror_rows_[i];
  r.cap = node.cap();
  r.rapl_cap = rapl.cap();
  r.demand = rapl.demand();
  r.pool = node.pool_watts();
  r.debt = node.retirement_debt();
  r.power0 = anchor.power;
  r.energy0 = anchor.energy_joules;
  r.last = anchor.last;
  r.idle = node.body().app_done() || node.crashed() ? 1.0 : 0.0;
}

Cluster::~Cluster() = default;

NodeConfig Cluster::make_node_config(int node) {
  NodeConfig nc;
  nc.id = node;
  nc.initial_cap_watts = config_.initial_node_cap();
  nc.epsilon_watts = config_.epsilon_watts;
  nc.period = config_.period;
  nc.request_timeout = config_.request_timeout;
  nc.start_offset =
      config_.start_jitter > 0
          ? static_cast<common::Ticks>(rng_.next_below(
                static_cast<std::uint32_t>(config_.start_jitter))) +
                1
          : 1;  // never 0: the first tick needs a nonempty interval
  nc.rapl = config_.rapl;
  nc.perf = config_.perf;
  nc.measurement_noise_watts = config_.measurement_noise_watts;
  nc.membership_enabled = config_.membership_enabled;
  nc.membership = config_.membership;
  if (config_.membership_enabled &&
      config_.manager == ManagerKind::kPenelope) {
    // Full-mesh liveness: every client watches every other client.
    for (int peer = 0; peer < config_.n_nodes; ++peer) {
      if (peer != node) nc.membership_peers.push_back(peer);
    }
  } else if (config_.membership_enabled) {
    // Central managers: clients heartbeat only the server node.
    nc.membership_peers.push_back(config_.n_nodes);
  }
  nc.seed = config_.seed ^ (0x9e3779b9u * static_cast<unsigned>(node + 1));
  return nc;
}

core::PenelopeConfig Cluster::make_penelope_config(
    const NodeConfig& nc) const {
  core::PenelopeConfig pc;
  pc.decider = core::DeciderConfig{nc.initial_cap_watts,
                                   nc.epsilon_watts,
                                   nc.rapl.safe_range,
                                   config_.local_take,
                                   config_.urgency_enabled,
                                   nc.id};
  pc.pool = config_.pool;
  pc.period = nc.period;
  pc.sticky_peers = config_.sticky_peers;
  pc.hint_discovery = config_.hint_discovery;
  pc.blacklist_after_timeouts = config_.blacklist_after_timeouts;
  pc.blacklist_duration = config_.blacklist_duration;
  pc.push_gossip = config_.push_gossip;
  pc.push_threshold_watts = config_.push_threshold_watts;
  pc.push_fraction = config_.push_fraction;
  pc.test_revert_grant_fix = config_.test_revert_grant_fix;
  return pc;
}

void Cluster::build(std::vector<workload::WorkloadProfile> profiles) {
  const int n = config_.n_nodes;

  // Completion bookkeeping mutates cluster-global state, so it goes
  // through the barrier (deterministic order: posts drain in shard-index
  // order, and the counting is commutative anyway); at sim_jobs=1 the
  // post runs inline.
  std::function<void(net::NodeId, common::Ticks)> on_complete =
      [this](net::NodeId id, common::Ticks at) {
        engine_->post_to_barrier([this, id, at] { on_node_complete(id, at); });
      };

  if (fed_topo_) {
    ArenaConfig ac;
    ac.n_nodes = n;
    ac.initial_cap_watts = config_.initial_node_cap();
    ac.epsilon_watts = config_.epsilon_watts;
    ac.period = config_.period;
    ac.request_timeout = config_.request_timeout;
    ac.active_set = config_.arena_active_set;
    ac.safe_range = config_.rapl.safe_range;
    ac.perf = config_.perf;
    ac.federation.pools = config_.federation_pools;
    ac.federation.fanout = config_.federation_fanout;
    ac.federation.period = config_.federation_period;
    ac.federation.low_water_watts = config_.federation_low_water_watts;
    ac.seed = config_.seed;
    arena_ = std::make_unique<FederatedArena>(
        ac, *fed_topo_, *net_, metrics_,
        [this](net::NodeId id) -> sim::Simulator& { return node_sim(id); },
        std::move(profiles), on_complete);
    return;
  }

  for (int i = 0; i < n; ++i) {
    NodeConfig nc = make_node_config(i);
    auto profile = std::move(profiles[static_cast<std::size_t>(i)]);
    sim::Simulator& node_engine = node_sim(i);

    switch (config_.manager) {
      case ManagerKind::kFair: {
        auto actor = std::make_unique<FairNodeActor>(node_engine, nc,
                                                     std::move(profile));
        actor->body().set_on_complete(on_complete);
        fair_nodes_.push_back(std::move(actor));
        break;
      }
      case ManagerKind::kPenelope: {
        // Uniform random peer discovery (§3.1): any client but self.
        // Each node owns its draw stream, derived only from (seed, id),
        // so the sequence a node sees is independent of how other nodes'
        // picks interleave — the property sharded execution needs, and
        // which also makes serial runs robust to actor reordering.
        auto pick_peer =
            [this, i,
             rng = common::Rng(config_.seed ^
                               (0x94d049bb133111ebULL *
                                static_cast<std::uint64_t>(i + 1)))]() mutable
            -> net::NodeId {
          auto peer = static_cast<net::NodeId>(rng.next_below(
              static_cast<std::uint32_t>(config_.n_nodes - 1)));
          if (peer >= i) ++peer;
          return peer;
        };
        auto actor = std::make_unique<PenelopeNodeActor>(
            node_engine, *net_, nc, make_penelope_config(nc),
            config_.pool_service,
            std::move(profile), pick_peer, metrics_);
        actor->body().set_on_complete(on_complete);
        penelope_nodes_.push_back(std::move(actor));
        break;
      }
      case ManagerKind::kCentral:
      case ManagerKind::kHierarchical: {
        auto actor = std::make_unique<CentralClientActor>(
            node_engine, *net_, nc, /*server_id=*/n, std::move(profile),
            metrics_,
            /*hierarchical=*/config_.manager ==
                ManagerKind::kHierarchical);
        actor->body().set_on_complete(on_complete);
        central_clients_.push_back(std::move(actor));
        break;
      }
    }
  }

  if (config_.manager == ManagerKind::kCentral) {
    net::SerialServerConfig service = config_.server_service;
    service.seed = config_.seed ^ 0xc2b2ae35u;
    server_ = std::make_unique<CentralServerActor>(
        node_sim(n), *net_, /*id=*/n, config_.server, service, metrics_);
    if (config_.membership_enabled)
      server_->enable_membership(config_.membership, n);
  } else if (config_.manager == ManagerKind::kHierarchical) {
    net::SerialServerConfig service = config_.server_service;
    service.seed = config_.seed ^ 0xc2b2ae35u;
    hierarchy::PoddConfig podd;
    podd.n_nodes = n;
    podd.initial_cap_watts = config_.initial_node_cap();
    podd.safe_range = config_.rapl.safe_range;
    podd.central = config_.server;
    podd.profile_periods = config_.podd_profile_periods;
    podd_server_ = std::make_unique<HierarchicalServerActor>(
        node_sim(n), *net_, /*id=*/n, podd, service, metrics_);
    if (config_.membership_enabled)
      podd_server_->enable_membership(config_.membership, n);
  }
}

void Cluster::arm_faults() {
  for (const FaultEvent& fault : config_.faults) {
    switch (fault.kind) {
      case FaultEvent::Kind::kKillServer:
        control_sim().schedule_at(fault.at, [this] {
          if (server_) server_->kill();
          if (podd_server_) podd_server_->kill();
        });
        break;
      case FaultEvent::Kind::kKillManagement:
        control_sim().schedule_at(fault.at, [this, node = fault.node] {
          if (config_.manager == ManagerKind::kPenelope &&
              node >= 0 && node < config_.n_nodes) {
            penelope_nodes_[static_cast<std::size_t>(node)]
                ->kill_management();
          }
        });
        break;
      case FaultEvent::Kind::kPartition:
        control_sim().schedule_at(fault.at, [this, split = fault.node] {
          std::vector<net::NodeId> left;
          std::vector<net::NodeId> right;
          for (int i = 0; i < config_.n_nodes; ++i) {
            (i < split ? left : right).push_back(i);
          }
          // Server node (if any) joins the right island.
          right.push_back(config_.n_nodes);
          net_->set_partition({left, right});
        });
        break;
      case FaultEvent::Kind::kHealPartition:
        control_sim().schedule_at(fault.at, [this] { net_->clear_partition(); });
        break;
      case FaultEvent::Kind::kCrashNode:
        control_sim().schedule_at(fault.at, [this, node = fault.node] {
          if (node >= 0 && node < config_.n_nodes) crash_node(node);
        });
        break;
      case FaultEvent::Kind::kRecoverNode:
        control_sim().schedule_at(fault.at, [this, node = fault.node] {
          if (node >= 0 && node < config_.n_nodes) recover_node(node);
        });
        break;
      case FaultEvent::Kind::kAsymPartition:
        control_sim().schedule_at(fault.at, [this, split = fault.node] {
          std::vector<net::NodeId> from;
          std::vector<net::NodeId> to;
          for (int i = 0; i < config_.n_nodes; ++i) {
            (i < split ? from : to).push_back(i);
          }
          // Mirror kPartition's island shape: the server node (if any)
          // sits on the unreachable side, so central grants vanish while
          // requests still arrive.
          to.push_back(config_.n_nodes);
          net_->set_one_way_block(from, to);
        });
        break;
      case FaultEvent::Kind::kHealAsymPartition:
        control_sim().schedule_at(fault.at,
                                  [this] { net_->clear_one_way_block(); });
        break;
      case FaultEvent::Kind::kPauseNode:
        control_sim().schedule_at(fault.at, [this, node = fault.node] {
          if (node >= 0 && node <= config_.n_nodes)
            net_->pause_node(node);
        });
        break;
      case FaultEvent::Kind::kResumeNode:
        control_sim().schedule_at(fault.at, [this, node = fault.node] {
          if (node >= 0 && node <= config_.n_nodes)
            net_->resume_node(node);
        });
        break;
      case FaultEvent::Kind::kLatencyBurst:
        control_sim().schedule_at(
            fault.at, [this, node = fault.node,
                       extra = common::from_seconds(fault.magnitude),
                       until = fault.until] {
              if (node >= 0 && node <= config_.n_nodes)
                net_->set_latency_burst(node, extra, until);
            });
        break;
      case FaultEvent::Kind::kSetFaultRates:
        control_sim().schedule_at(fault.at, [this, rates = fault.rates] {
          net_->set_fault_rates(rates);
        });
        break;
    }
  }
}

void Cluster::arm_churn() {
  if (!config_.churn_enabled) return;
  PEN_CHECK(config_.churn_mtbf_seconds > 0.0);
  PEN_CHECK(config_.churn_mttr_seconds > 0.0);
  // The schedule derives only from the seed (its own stream, so it does
  // not perturb start-jitter or network draws): every client alternates
  // exponential up-time and down-time until the run deadline. Scheduled
  // up front rather than on the fly, which keeps the event sequence
  // independent of anything the run itself does.
  common::Rng churn_rng(config_.seed ^ 0x27d4eb2fu);
  common::Ticks deadline = common::from_seconds(config_.max_seconds);
  for (int node = 0; node < config_.n_nodes; ++node) {
    double t = 0.0;
    for (;;) {
      t += churn_rng.exponential(config_.churn_mtbf_seconds);
      common::Ticks down_at = common::from_seconds(t);
      if (down_at >= deadline) break;
      t += churn_rng.exponential(config_.churn_mttr_seconds);
      common::Ticks up_at = common::from_seconds(t);
      if (up_at >= deadline) break;  // never leave a node down for good
      control_sim().schedule_at(down_at, [this, node] { crash_node(node); });
      control_sim().schedule_at(up_at, [this, node] { recover_node(node); });
    }
  }
}

void Cluster::crash_node(int node) {
  PEN_CHECK(node >= 0 && node < config_.n_nodes);
  if (arena_) {
    arena_->crash_node(node, now_ticks());
    return;
  }
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kPenelope:
      penelope_nodes_[idx]->crash();
      break;
    case ManagerKind::kCentral:
    case ManagerKind::kHierarchical:
      central_clients_[idx]->crash();
      break;
    case ManagerKind::kFair:
      break;  // no volatile management state to lose
  }
}

void Cluster::recover_node(int node) {
  PEN_CHECK(node >= 0 && node < config_.n_nodes);
  if (arena_) {
    arena_->recover_node(node, now_ticks());
    return;
  }
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kPenelope:
      penelope_nodes_[idx]->restart();
      break;
    case ManagerKind::kCentral:
    case ManagerKind::kHierarchical:
      central_clients_[idx]->restart();
      break;
    case ManagerKind::kFair:
      break;
  }
}

bool Cluster::node_crashed(int node) const {
  if (arena_) return arena_->node_crashed(node);
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kPenelope:
      return penelope_nodes_.at(idx)->crashed();
    case ManagerKind::kCentral:
    case ManagerKind::kHierarchical:
      return central_clients_.at(idx)->crashed();
    case ManagerKind::kFair:
      return false;
  }
  return false;
}

std::uint32_t Cluster::node_incarnation(int node) const {
  if (arena_) return arena_->node_incarnation(node);
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kPenelope:
      return penelope_nodes_.at(idx)->incarnation();
    case ManagerKind::kCentral:
    case ManagerKind::kHierarchical:
      return central_clients_.at(idx)->incarnation();
    case ManagerKind::kFair:
      return 1;
  }
  return 1;
}

void Cluster::on_node_complete(net::NodeId node, common::Ticks at) {
  PEN_CHECK(node >= 0 && node < config_.n_nodes);
  auto& slot = completions_[static_cast<std::size_t>(node)];
  PEN_CHECK_MSG(!slot.has_value(), "node completed twice");
  slot = at;
  last_completion_ = std::max(last_completion_, at);
  if (++completed_nodes_ == config_.n_nodes) engine_->stop();
}

RunResult Cluster::run() {
  common::Ticks deadline = common::from_seconds(config_.max_seconds);
  // run_until returns on stop() (all nodes complete) or at the deadline.
  if (completed_nodes_ < config_.n_nodes && now_ticks() < deadline)
    engine_->run_until(deadline);
  // The audit task samples the high-water mark periodically, but short
  // runs (or audit_interval > runtime) would otherwise never record it;
  // close the books at run end.
  metrics_.note_pending_events_high_water(
      static_cast<double>(pending_high_water()));
  return collect_result();
}

void Cluster::run_for(double seconds) {
  engine_->run_until(now_ticks() + common::from_seconds(seconds));
  metrics_.note_pending_events_high_water(
      static_cast<double>(pending_high_water()));
}

std::uint64_t Cluster::node_outstanding_txn(int node) const {
  PEN_CHECK(node >= 0 && node < config_.n_nodes);
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kPenelope:
      if (arena_) return 0;  // arena nodes fold timeouts inline
      return penelope_nodes_.at(idx)->node().outstanding_txn();
    case ManagerKind::kCentral:
    case ManagerKind::kHierarchical:
      return central_clients_.at(idx)->outstanding_txn();
    case ManagerKind::kFair:
      return 0;
  }
  return 0;
}

void Cluster::watchdog_check(common::Ticks now) {
  if (wedged_) return;
  const std::uint64_t steps = metrics_.decider_steps();
  if (steps != watchdog_last_steps_) {
    watchdog_last_steps_ = steps;
    watchdog_last_progress_ = now;
    return;
  }
  if (completed_nodes_ >= config_.n_nodes) return;  // finished, not stuck
  if (config_.manager == ManagerKind::kFair) return;  // no decider plane
  // A stall is only a wedge if some node could still make progress: at
  // least one incomplete node that is not crashed. All-crashed clusters
  // are expected strands (recovery may still be scheduled), not wedges.
  bool any_live_incomplete = false;
  for (int i = 0; i < config_.n_nodes; ++i) {
    if (completions_[static_cast<std::size_t>(i)]) continue;
    if (node_crashed(i)) continue;
    any_live_incomplete = true;
    break;
  }
  if (!any_live_incomplete) return;
  if (now - watchdog_last_progress_ <
      common::from_seconds(config_.watchdog_s))
    return;
  watchdog_dump(now);
  wedged_ = true;
  PEN_CHECK_MSG(!config_.watchdog_abort,
                "liveness watchdog: decider plane wedged (see dump above)");
  engine_->stop();
}

void Cluster::watchdog_dump(common::Ticks now) {
  PEN_LOG_WARN(
      "liveness watchdog: no decider progress for %.1fs (t=%.3fs, "
      "decider_steps=%llu, pending_events=%zu, completed=%d/%d)",
      common::to_seconds(now - watchdog_last_progress_),
      common::to_seconds(now),
      static_cast<unsigned long long>(watchdog_last_steps_),
      pending_events(), completed_nodes_, config_.n_nodes);
  for (int i = 0; i < config_.n_nodes; ++i) {
    const bool done = completions_[static_cast<std::size_t>(i)].has_value();
    PEN_LOG_WARN(
        "  node %d: %s%s inc=%u outstanding_txn=%llu cap=%.1fW pool=%.1fW",
        i, done ? "done" : "running",
        node_crashed(i) ? " CRASHED" : "", node_incarnation(i),
        static_cast<unsigned long long>(node_outstanding_txn(i)),
        node_cap(i), node_pool_watts(i));
  }
  if (!health_.probes().empty()) {
    const telemetry::HealthProbe& probe = health_.probes().back();
    PEN_LOG_WARN(
        "  last health probe: t=%.3fs active=%llu jain=%.4f "
        "delivered=%.1fW drift=%.3g",
        common::to_seconds(probe.at),
        static_cast<unsigned long long>(probe.active_nodes), probe.jain,
        probe.delivered_watts, probe.conservation_drift);
  }
}

RunResult Cluster::collect_result() const {
  RunResult result;
  result.all_completed = completed_nodes_ == config_.n_nodes;
  common::Ticks end =
      result.all_completed ? last_completion_ : now_ticks();
  result.runtime_seconds = common::to_seconds(end);
  result.performance =
      result.runtime_seconds > 0.0 ? 1.0 / result.runtime_seconds : 0.0;
  for (const auto& completion : completions_) {
    result.node_completion_seconds.push_back(
        completion ? common::to_seconds(*completion) : -1.0);
  }
  result.turnaround_ms = metrics_.turnaround_ms();
  result.requests_sent = metrics_.requests_sent();
  result.timeouts = metrics_.timeouts();
  result.total_energy_joules = total_energy_joules();
  result.net_stats = net_->stats();
  if (server_) result.server_stats = server_->service_stats();
  if (podd_server_) result.server_stats = podd_server_->service_stats();
  result.stranded_watts = metrics_.stranded_watts();
  result.watts_reclaimed = metrics_.watts_reclaimed();
  result.reclaims = metrics_.reclaims();
  result.nodes_suspected = metrics_.nodes_suspected();
  result.false_suspicions = metrics_.false_suspicions();
  result.nodes_declared_dead = metrics_.nodes_declared_dead();
  result.audit = audit_summary_;
  result.wedged = wedged_;
  return result;
}

double Cluster::total_retirement_debt() const {
  double total = 0.0;
  for (const auto& node : penelope_nodes_)
    total += node->retirement_debt();
  for (const auto& node : central_clients_)
    total += node->retirement_debt();
  return total;
}

double Cluster::set_system_budget(double new_total_watts) {
  PEN_CHECK(new_total_watts > 0.0);
  PEN_CHECK_MSG(!arena_,
                "dynamic budget reconfiguration is not supported on the "
                "federated arena path");
  double delta_per_node =
      (new_total_watts - current_budget_) / config_.n_nodes;
  double applied_total = 0.0;

  switch (config_.manager) {
    case ManagerKind::kFair:
      // Static manager: rescale every cap; the safe range bounds what
      // can actually be applied.
      for (const auto& node : fair_nodes_) {
        auto& rapl = node->body().rapl();
        double before = rapl.cap();
        rapl.set_cap(before + delta_per_node);
        applied_total += rapl.cap() - before;
      }
      break;
    case ManagerKind::kPenelope:
      for (const auto& node : penelope_nodes_) {
        node->node().apply_budget_delta(delta_per_node);
      }
      applied_total = new_total_watts - current_budget_;
      break;
    case ManagerKind::kCentral:
    case ManagerKind::kHierarchical:
      for (const auto& node : central_clients_) {
        node->apply_budget_delta(delta_per_node);
      }
      applied_total = new_total_watts - current_budget_;
      break;
  }

  current_budget_ += applied_total;
  PEN_LOG_INFO("budget reconfigured to %.1f W (requested %.1f) at "
               "t=%.3fs, outstanding debt %.1f W",
               current_budget_, new_total_watts,
               common::to_seconds(now_ticks()), total_retirement_debt());
  return current_budget_;
}

ConservationAudit Cluster::audit() const {
  ConservationAudit audit;
  audit.budget = current_budget_;
  audit.retirement_debt = total_retirement_debt();
  if (arena_) {
    audit.cap_total = arena_->cap_total();
    audit.pool_total = arena_->pool_total();
    audit.in_flight = metrics_.in_flight_watts();
    audit.stranded = metrics_.stranded_watts();
    return audit;
  }
  for (const auto& node : fair_nodes_) audit.cap_total += node->cap();
  for (const auto& node : penelope_nodes_) {
    audit.cap_total += node->cap();
    audit.pool_total += node->pool_watts();
  }
  for (const auto& node : central_clients_) audit.cap_total += node->cap();
  if (server_) audit.server_cache = server_->cache_watts();
  if (podd_server_) audit.server_cache = podd_server_->cache_watts();
  audit.in_flight = metrics_.in_flight_watts();
  audit.stranded = metrics_.stranded_watts();
  return audit;
}

double Cluster::node_cap(int node) const {
  if (arena_) return arena_->node_cap(node);
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kFair: return fair_nodes_.at(idx)->cap();
    case ManagerKind::kPenelope: return penelope_nodes_.at(idx)->cap();
    case ManagerKind::kHierarchical:
    case ManagerKind::kCentral: return central_clients_.at(idx)->cap();
  }
  return 0.0;
}

double Cluster::node_pool_watts(int node) const {
  if (config_.manager != ManagerKind::kPenelope) return 0.0;
  // Federated path: pools are shared per leaf, not per node; the audit
  // accounts them via FederatedArena::pool_total().
  if (arena_) return 0.0;
  return penelope_nodes_.at(static_cast<std::size_t>(node))->pool_watts();
}

double Cluster::server_cache_watts() const {
  if (server_) return server_->cache_watts();
  if (podd_server_) return podd_server_->cache_watts();
  return 0.0;
}

bool Cluster::node_app_done(int node) const {
  if (arena_) return arena_->node_done(node);
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kFair:
      return fair_nodes_.at(idx)->body().app_done();
    case ManagerKind::kPenelope:
      return penelope_nodes_.at(idx)->body().app_done();
    case ManagerKind::kHierarchical:
    case ManagerKind::kCentral:
      return central_clients_.at(idx)->body().app_done();
  }
  return false;
}

double Cluster::node_power(int node) const {
  auto idx = static_cast<std::size_t>(node);
  // instantaneous_power advances the analytic model to now(), which is
  // a const-view operation conceptually but mutates cached state; the
  // actors expose non-const bodies for exactly this reason.
  if (arena_) return arena_->node_power(node, now_ticks());
  auto* self = const_cast<Cluster*>(this);
  switch (config_.manager) {
    case ManagerKind::kFair:
      return self->fair_nodes_.at(idx)->body().rapl().instantaneous_power(
          now_ticks());
    case ManagerKind::kPenelope:
      return self->penelope_nodes_.at(idx)
          ->body()
          .rapl()
          .instantaneous_power(now_ticks());
    case ManagerKind::kHierarchical:
    case ManagerKind::kCentral:
      return self->central_clients_.at(idx)
          ->body()
          .rapl()
          .instantaneous_power(now_ticks());
  }
  return 0.0;
}

double Cluster::total_energy_joules() const {
  // Advancing the analytic model to now() mutates cached state (same
  // note as node_power).
  if (arena_) return arena_->total_energy_joules(now_ticks());
  auto* self = const_cast<Cluster*>(this);
  double total = 0.0;
  for (auto& node : self->fair_nodes_)
    total += node->body().rapl().total_energy_joules(now_ticks());
  for (auto& node : self->penelope_nodes_)
    total += node->body().rapl().total_energy_joules(now_ticks());
  for (auto& node : self->central_clients_)
    total += node->body().rapl().total_energy_joules(now_ticks());
  return total;
}

double Cluster::node_demand(int node) const {
  if (arena_) return arena_->node_demand(node);
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kFair:
      return fair_nodes_.at(idx)->body().rapl().demand();
    case ManagerKind::kPenelope:
      return penelope_nodes_.at(idx)->body().rapl().demand();
    case ManagerKind::kHierarchical:
    case ManagerKind::kCentral:
      return central_clients_.at(idx)->body().rapl().demand();
  }
  return 0.0;
}

double Cluster::node_fraction_complete(int node) const {
  if (arena_) return arena_->node_fraction_complete(node, now_ticks());
  auto idx = static_cast<std::size_t>(node);
  switch (config_.manager) {
    case ManagerKind::kFair:
      return fair_nodes_.at(idx)->body().fraction_complete();
    case ManagerKind::kPenelope:
      return penelope_nodes_.at(idx)->body().fraction_complete();
    case ManagerKind::kHierarchical:
    case ManagerKind::kCentral:
      return central_clients_.at(idx)->body().fraction_complete();
  }
  return 0.0;
}

std::vector<workload::WorkloadProfile> make_pair_workloads(
    workload::NpbApp a, workload::NpbApp b, int n_nodes,
    workload::NpbConfig config) {
  PEN_CHECK(n_nodes >= 2);
  std::vector<workload::WorkloadProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(n_nodes));
  for (int i = 0; i < n_nodes; ++i) {
    workload::NpbConfig node_config = config;
    node_config.seed =
        config.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<unsigned>(i + 1));
    profiles.push_back(
        workload::npb_profile(i < n_nodes / 2 ? a : b, node_config));
  }
  return profiles;
}

}  // namespace penelope::cluster
