#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "cluster/scale.hpp"
#include "common/stats.hpp"
#include "dst/explorer.hpp"
#include "power/performance_model.hpp"
#include "telemetry/export.hpp"
#include "workload/npb.hpp"

namespace perfbench {
namespace {

using namespace penelope;
using cluster::Cluster;
using cluster::ManagerKind;
using Values = std::map<std::string, double>;

constexpr double kConservationTolerance = 1e-6;
constexpr std::size_t kMaxFailuresKept = 20;

// splitmix64 finalizer: the fold dst::run_swarm uses for outcome_hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double elapsed_s(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : common::median(v);
}

/// One repetition of a workload: host times, outputs, and checks.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> step_ms;
  Values values;
  std::vector<std::pair<std::string, std::string>> hashes;
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok && failures.size() < kMaxFailuresKept) failures.push_back(what);
  }
  /// Time one step [from, to) of the simulation proper.
  void add_step(std::int64_t from_ns, std::int64_t to_ns) {
    wall_s += elapsed_s(from_ns, to_ns);
    step_ms.push_back(static_cast<double>(to_ns - from_ns) / 1e6);
  }
};

void add_net(Values& v, const net::NetworkStats& s) {
  v["net.sent"] += static_cast<double>(s.sent);
  v["net.delivered"] += static_cast<double>(s.delivered);
  v["net.dropped"] += static_cast<double>(s.dropped_total());
  v["net.payload_bytes"] += static_cast<double>(s.payload_bytes_sent);
  v["net.duplicated"] += static_cast<double>(s.duplicated);
  v["net.corrupted"] += static_cast<double>(s.corrupted);
}

void add_cluster_counters(Values& v, const Cluster& cl) {
  const cluster::ClusterMetrics& m = cl.metrics();
  v["core.requests"] += static_cast<double>(m.requests_sent());
  v["core.timeouts"] += static_cast<double>(m.timeouts());
  v["core.decider_steps"] += static_cast<double>(m.decider_steps());
  v["core.duplicates_dropped"] += static_cast<double>(m.duplicates_dropped());
  v["core.unknown_txn_grants"] += static_cast<double>(m.unknown_txn_grants());
  v["core.reclaims"] += static_cast<double>(m.reclaims());
  v["core.false_suspicions"] += static_cast<double>(m.false_suspicions());
  v["hierarchy.fed_msgs"] += static_cast<double>(m.federated_requests() +
                                                 m.federated_transfers());
  v["hierarchy.fed_watts_moved"] += m.federated_watts_moved();
  v["telemetry.flight_records"] +=
      static_cast<double>(m.recorder().recorded());
  v["sim.events"] += static_cast<double>(cl.executed_events());
  v["sim.pending_high_water"] =
      std::max(v["sim.pending_high_water"],
               static_cast<double>(cl.pending_high_water()));
}

void add_central(Values& v, const net::SerialServerStats& s) {
  v["central.processed"] += static_cast<double>(s.processed);
  v["central.queue_wait_ticks"] += static_cast<double>(s.total_queue_wait);
  v["central.peak_queue"] = std::max(
      v["central.peak_queue"], static_cast<double>(s.peak_queue_depth));
  v["central.overflow_drops"] += static_cast<double>(s.dropped_overflow);
}

/// Ratios and simulated-time outcomes, once a repetition's counters are
/// summed. `node_seconds` is nodes x simulated seconds.
void finish_rep(Rep& rep, const std::vector<double>& turnaround_ms,
                double node_seconds) {
  Values& v = rep.values;
  v["net.delivered_per_sent"] =
      v["net.sent"] > 0 ? v["net.delivered"] / v["net.sent"] : 0.0;
  v["core.timeout_ratio"] =
      v["core.requests"] > 0 ? v["core.timeouts"] / v["core.requests"] : 0.0;
  // Ticks are microseconds.
  v["central.queue_wait_us"] =
      v["central.processed"] > 0
          ? v["central.queue_wait_ticks"] / v["central.processed"]
          : 0.0;
  v.erase("central.queue_wait_ticks");
  v["turnaround_sim_ms.p50"] = common::percentile(turnaround_ms, 50.0);
  v["turnaround_sim_ms.p99"] = common::percentile(turnaround_ms, 99.0);
  v["msgs_per_node_s"] =
      node_seconds > 0 ? v["net.sent"] / node_seconds : 0.0;
  rep.check(!turnaround_ms.empty(), "no request was ever answered");
}

/// The conservation audit a step must pass.
void check_audit(Rep& rep, const Cluster& cl, Spans& spans,
                 const std::string& where) {
  double err = 0.0;
  {
    auto span = spans.scope("cluster.audit");
    err = std::fabs(cl.audit().conservation_error());
  }
  Values& v = rep.values;
  v["cluster.max_conservation_error"] =
      std::max(v["cluster.max_conservation_error"], err);
  rep.check(err < kConservationTolerance,
            where + ": conservation error " + std::to_string(err));
}

std::unique_ptr<Cluster> build_cluster(
    const cluster::ClusterConfig& cc, Spans& spans,
    const std::function<std::vector<workload::WorkloadProfile>()>& gen) {
  std::vector<workload::WorkloadProfile> profiles;
  {
    auto span = spans.scope("workload.gen");
    profiles = gen();
  }
  auto span = spans.scope("cluster.build");
  return std::make_unique<Cluster>(cc, std::move(profiles));
}

// ---------------------------------------------------------------------
// nominal_fig2: the paper's Figure 2 sweep (36 NPB pairs x five caps x
// {Fair, central, Penelope} on 20 nodes, every run to completion).

Rep nominal_rep(const Options& o, Spans& spans) {
  Rep rep;
  std::vector<double> caps{60.0, 70.0, 80.0, 90.0, 100.0};
  auto pairs = workload::unique_pairs();
  if (o.tiny) {
    caps = {60.0};
    pairs.resize(3);
  }
  const ManagerKind managers[] = {ManagerKind::kFair, ManagerKind::kCentral,
                                  ManagerKind::kPenelope};
  workload::NpbConfig npb;
  npb.duration_scale = 1.0;
  npb.demand_jitter_frac = 0.02;
  npb.seed = o.seed;

  std::vector<double> slurm_speedup;
  std::vector<double> penelope_speedup;
  std::vector<double> turnaround;
  double node_seconds = 0.0;
  std::uint64_t hash = 0;
  for (double cap : caps) {
    for (auto [a, b] : pairs) {
      double runtime[3] = {};
      for (int m = 0; m < 3; ++m) {
        cluster::ClusterConfig cc;
        cc.manager = managers[m];
        cc.n_nodes = 20;
        cc.per_socket_cap_watts = cap;
        cc.seed = o.seed;
        cc.max_seconds = 3600.0;
        const std::int64_t t0 = now_ns();
        auto cl = build_cluster(cc, spans, [&] {
          return cluster::make_pair_workloads(a, b, cc.n_nodes, npb);
        });
        const std::int64_t t1 = now_ns();
        cluster::RunResult r;
        {
          auto span = spans.scope("cluster.step");
          r = cl->run();
        }
        rep.add_step(t1, now_ns());
        rep.setup_s += elapsed_s(t0, t1);

        const std::string where =
            std::string(cluster::manager_name(cc.manager)) + " " +
            workload::app_name(a) + "+" + workload::app_name(b) + " cap " +
            std::to_string(static_cast<int>(cap));
        check_audit(rep, *cl, spans, where);
        rep.check(r.audit.max_abs_conservation_error < kConservationTolerance,
                  where + ": periodic audit conservation error");
        rep.check(r.all_completed, where + ": run did not complete");
        runtime[m] = r.runtime_seconds;
        hash = mix64(hash ^ cl->trace_hash());
        add_net(rep.values, r.net_stats);
        add_cluster_counters(rep.values, *cl);
        if (r.server_stats) add_central(rep.values, *r.server_stats);
        turnaround.insert(turnaround.end(), r.turnaround_ms.begin(),
                          r.turnaround_ms.end());
        node_seconds += cc.n_nodes * r.runtime_seconds;
      }
      slurm_speedup.push_back(runtime[0] / runtime[1]);
      penelope_speedup.push_back(runtime[0] / runtime[2]);
    }
  }
  rep.values["fig2.slurm_speedup"] = common::geomean(slurm_speedup);
  rep.values["fig2.penelope_speedup"] = common::geomean(penelope_speedup);
  rep.ops = static_cast<std::uint64_t>(rep.values["core.requests"]);
  rep.ops_failed = static_cast<std::uint64_t>(rep.values["core.timeouts"]);
  finish_rep(rep, turnaround, node_seconds);
  rep.hashes = {{"trace_hash", hex(hash)}};
  return rep;
}

// ---------------------------------------------------------------------
// classic_steady: the bench_parallel config (4096 classic Penelope
// actors, half hungry at 240 W, half donors at 30 W), stepped 1 s at a
// time.

constexpr int kClassicHashStep = 5;  // BENCH_parallel's 5 simulated seconds

cluster::ClusterConfig classic_config(const Options& o) {
  cluster::ClusterConfig cc;
  cc.manager = ManagerKind::kPenelope;
  cc.n_nodes = o.tiny ? 256 : 4096;
  cc.per_socket_cap_watts = 60.0;
  cc.measurement_noise_watts = 0.0;
  cc.seed = o.seed;
  cc.sim_jobs = 1;
  cc.network.latency.floor = common::from_millis(0.05);  // 50 us
  return cc;
}

std::vector<workload::WorkloadProfile> classic_profiles(int nodes) {
  std::vector<workload::WorkloadProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    workload::WorkloadProfile p;
    p.name = "x";
    p.phases.push_back(workload::Phase{"hot", i % 2 ? 240.0 : 30.0, 1e9});
    profiles.push_back(std::move(p));
  }
  return profiles;
}

std::unique_ptr<Cluster> classic_build(const Options& o, Spans& spans) {
  cluster::ClusterConfig cc = classic_config(o);
  return build_cluster(cc, spans,
                       [&] { return classic_profiles(cc.n_nodes); });
}

Rep classic_rep(const Options& o, Spans& spans) {
  const int steps = o.tiny ? 10 : 100;
  Rep rep;
  const std::int64_t t0 = now_ns();
  auto cl = classic_build(o, spans);
  rep.setup_s = elapsed_s(t0, now_ns());
  for (int step = 1; step <= steps; ++step) {
    const std::int64_t s0 = now_ns();
    {
      auto span = spans.scope("cluster.step");
      cl->run_for(1.0);
    }
    rep.add_step(s0, now_ns());
    check_audit(rep, *cl, spans, "step " + std::to_string(step));
    if (step == kClassicHashStep)
      rep.hashes.emplace_back("trace_hash_5s", hex(cl->trace_hash()));
  }
  cluster::RunResult r;
  {
    auto span = spans.scope("cluster.collect");
    r = cl->collect_result();
  }
  rep.hashes.emplace_back("trace_hash", hex(cl->trace_hash()));
  add_net(rep.values, r.net_stats);
  add_cluster_counters(rep.values, *cl);
  rep.ops = r.requests_sent;
  rep.ops_failed = r.timeouts;
  finish_rep(rep, cl->metrics().turnaround_ms(),
             static_cast<double>(cl->config().n_nodes) * steps);
  return rep;
}

// ---------------------------------------------------------------------
// federated_burst: the §4.5 completion burst on the federated arena
// (131072 nodes, ~sqrt(N) leaf pools, fanout 8), stepped 1 s at a time
// over run_scale_experiment's horizon.

cluster::ScaleConfig burst_scale_config(const Options& o) {
  cluster::ScaleConfig sc;
  sc.manager = ManagerKind::kPenelope;
  sc.n_nodes = o.tiny ? 2048 : 131072;
  sc.pools = static_cast<int>(
      std::lround(std::sqrt(static_cast<double>(sc.n_nodes))));
  sc.fanout = 8;
  sc.burst_at_seconds = 5.0;
  sc.window_seconds = 60.0;
  sc.seed = o.seed;
  return sc;
}

/// The completion-burst workloads run_scale_experiment builds: half
/// the cluster finishes at burst_at_seconds under its initial cap, the
/// other half stays hungry past the window.
std::vector<workload::WorkloadProfile> burst_profiles(
    const cluster::ScaleConfig& sc, const cluster::ClusterConfig& cc) {
  const double initial_cap = cc.initial_node_cap();
  const double burst_demand = initial_cap + sc.burst_demand_margin_watts;
  power::PerformanceModel model(cc.perf);
  const double burst_work =
      sc.burst_at_seconds * model.speed(initial_cap, burst_demand);
  const double hungry_work =
      (sc.burst_at_seconds + sc.window_seconds + 100.0) * 2.0;
  std::vector<workload::WorkloadProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(sc.n_nodes));
  for (int i = 0; i < sc.n_nodes; ++i) {
    workload::WorkloadProfile p;
    if (i < sc.n_nodes / 2) {
      p.name = "burst";
      p.phases.push_back(workload::Phase{"hot", burst_demand, burst_work});
    } else {
      p.name = "hungry";
      p.phases.push_back(
          workload::Phase{"hot", sc.hungry_demand_watts, hungry_work});
    }
    profiles.push_back(std::move(p));
  }
  return profiles;
}

std::unique_ptr<Cluster> burst_build(const Options& o, Spans& spans) {
  cluster::ScaleConfig sc = burst_scale_config(o);
  cluster::ClusterConfig cc = cluster::make_scale_cluster_config(sc);
  return build_cluster(cc, spans, [&] { return burst_profiles(sc, cc); });
}

Rep burst_rep(const Options& o, Spans& spans) {
  const cluster::ScaleConfig sc = burst_scale_config(o);
  const int steps = static_cast<int>(
      sc.burst_at_seconds + sc.window_seconds + 2.0);  // the horizon
  Rep rep;
  const std::int64_t t0 = now_ns();
  auto cl = burst_build(o, spans);
  rep.setup_s = elapsed_s(t0, now_ns());
  const double n = static_cast<double>(sc.n_nodes);
  double active = 0.0;
  for (int step = 1; step <= steps; ++step) {
    const std::int64_t s0 = now_ns();
    {
      auto span = spans.scope("cluster.step");
      cl->run_for(1.0);
    }
    rep.add_step(s0, now_ns());
    check_audit(rep, *cl, spans, "step " + std::to_string(step));
    active += cl->arena()->active_set_size() / n;
  }
  const cluster::ClusterMetrics& metrics = cl->metrics();
  common::Ticks burst_at =
      metrics.releases().empty() ? 0 : metrics.releases().front().at;
  cluster::RedistributionResult half;
  {
    auto span = spans.scope("cluster.redistribution");
    half = cluster::analyze_redistribution(metrics, burst_at, 0.5);
  }
  cluster::RunResult r;
  {
    auto span = spans.scope("cluster.collect");
    r = cl->collect_result();
  }
  Values& v = rep.values;
  add_net(v, r.net_stats);
  add_cluster_counters(v, *cl);
  v["t50_sim_s"] = half.time_to_fraction_s.value_or(sc.window_seconds);
  v["arena.active_frac"] = active / steps;
  v["arena.node_periods"] = n * steps;
  rep.check(half.time_to_fraction_s.has_value(), "t50 never reached");
  rep.check(half.shifted_watts > 0.0, "the burst shifted no watts");
  rep.check(r.audit.max_abs_conservation_error < kConservationTolerance,
            "periodic audit conservation error");
  v["cluster.max_conservation_error"] = std::max(
      v["cluster.max_conservation_error"], r.audit.max_abs_conservation_error);
  rep.hashes = {{"trace_hash", hex(cl->trace_hash())}};
  rep.ops = r.requests_sent;
  rep.ops_failed = r.timeouts;
  finish_rep(rep, metrics.turnaround_ms(), n * steps);
  return rep;
}

// ---------------------------------------------------------------------
// chaos_swarm: dst::run_swarm's 32 x 32 eight-node fault-schedule swarm,
// re-driven one run at a time through the calls execute_one makes.

dst::ExplorerConfig chaos_config(const Options& o) {
  dst::ExplorerConfig cfg;
  cfg.base_seed = o.seed;
  cfg.seeds = o.tiny ? 2 : 32;
  cfg.schedules = o.tiny ? 2 : 32;
  cfg.jobs = 1;
  return cfg;
}

Rep chaos_rep(const Options& o, Spans& spans) {
  const dst::ExplorerConfig cfg = chaos_config(o);
  dst::ScheduleSpec spec = cfg.spec;
  spec.n_nodes = cfg.n_nodes;
  workload::NpbConfig npb;
  npb.duration_scale = cfg.duration_scale;
  npb.demand_jitter_frac = 0.03;

  Rep rep;
  Values& v = rep.values;
  std::vector<double> turnaround;
  double node_seconds = 0.0;
  std::uint64_t outcome = 0;
  const int runs = cfg.seeds * cfg.schedules;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed =
        cfg.base_seed + static_cast<std::uint64_t>(i / cfg.schedules);
    const std::uint64_t salt = dst::schedule_salt(cfg, i % cfg.schedules);
    const std::int64_t t0 = now_ns();
    std::vector<cluster::FaultEvent> schedule;
    {
      auto span = spans.scope("dst.schedule");
      schedule = dst::generate_schedule(spec, salt);
    }
    cluster::ClusterConfig cc = dst::make_dst_config(cfg, seed);
    cc.faults = schedule;
    npb.seed = seed;
    auto cl = build_cluster(cc, spans, [&] {
      return cluster::make_pair_workloads(workload::NpbApp::kEP,
                                          workload::NpbApp::kDC,
                                          cc.n_nodes, npb);
    });
    const std::int64_t t1 = now_ns();
    cluster::RunResult r;
    {
      auto span = spans.scope("cluster.step");
      r = cl->run();
    }
    std::vector<dst::Violation> violations;
    {
      auto span = spans.scope("dst.oracle");
      violations =
          dst::check_oracles(dst::gather_facts(*cl, r, schedule));
    }
    rep.add_step(t1, now_ns());
    rep.setup_s += elapsed_s(t0, t1);

    if (spans.enabled()) {
      // What a user exports to explain one run.
      {
        auto span = spans.scope("telemetry.prom_export");
        (void)telemetry::to_prometheus_text(
            cl->metrics().registry().snapshot());
      }
      auto span = spans.scope("telemetry.perfetto_export");
      (void)telemetry::to_perfetto_json(cl->metrics().recorder().snapshot());
    }

    const std::string where = "run " + std::to_string(i) + " (" +
                              dst::repro_command(cfg, seed, schedule) + ")";
    check_audit(rep, *cl, spans, where);
    for (const dst::Violation& bad : violations)
      rep.check(false, where + ": " + bad.oracle + ": " + bad.detail);
    rep.check(!r.wedged, where + ": wedged");
    outcome = mix64(outcome ^ cl->trace_hash() ^ mix64(violations.size()));
    v["dst.violating_runs"] += violations.empty() ? 0.0 : 1.0;
    rep.ops_failed += (!violations.empty() || r.wedged) ? 1 : 0;
    add_net(v, r.net_stats);
    add_cluster_counters(v, *cl);
    turnaround.insert(turnaround.end(), r.turnaround_ms.begin(),
                      r.turnaround_ms.end());
    node_seconds += cc.n_nodes * r.runtime_seconds;
  }
  v["dst.runs"] = runs;
  v["dst.events_per_run"] = v["sim.events"] / runs;
  rep.ops = static_cast<std::uint64_t>(runs);
  finish_rep(rep, turnaround, node_seconds);
  rep.hashes = {{"outcome_hash", hex(outcome)}};
  return rep;
}

// ---------------------------------------------------------------------

std::string hash_of(const Report& report, const std::string& label) {
  for (const auto& [name, value] : report.hashes)
    if (name == label) return value;
  return "";
}

void expect(Report& report, bool ok, const std::string& what) {
  if (!ok) report.failures.push_back(what);
}

void verify_classic(const Options& o, Report& report) {
  if (!o.tiny) {
    expect(report, hash_of(report, "trace_hash_5s") == "175190e8a350651d",
           "5 s trace hash differs from BENCH_parallel's 175190e8a350651d");
    return;
  }
  Spans off;
  auto cl = classic_build(o, off);
  cl->run_for(kClassicHashStep);
  expect(report, hash_of(report, "trace_hash_5s") == hex(cl->trace_hash()),
         "1 s steps diverge from one run_for call");
}

void verify_burst(const Options& o, Report& report) {
  const Values& v = report.values;
  if (!o.tiny) {
    expect(report, v.at("net.sent") == 7259504.0,
           "sends differ from BENCH_scale's 7259504");
    expect(report, v.at("hierarchy.fed_msgs") == 15326.0,
           "federation messages differ from BENCH_scale's 15326");
    expect(report, std::round(v.at("t50_sim_s") * 100.0) == 600.0,
           "t50 differs from BENCH_scale's 6.00 s");
    expect(report, v.at("cluster.max_conservation_error") == 0.0,
           "conservation error is not BENCH_scale's 0.0");
    return;
  }
  cluster::ScaleResult ref =
      cluster::run_scale_experiment(burst_scale_config(o));
  expect(report,
         v.at("net.sent") == static_cast<double>(ref.messages_sent) &&
             v.at("hierarchy.fed_msgs") ==
                 static_cast<double>(ref.federated_requests +
                                     ref.federated_transfers) &&
             v.at("t50_sim_s") == ref.median_redistribution_s,
         "re-driven burst differs from run_scale_experiment");
}

void verify_chaos(const Options& o, Report& report) {
  const std::string expected =
      o.tiny ? hex(dst::run_swarm(chaos_config(o)).outcome_hash)
             : "25299521428ac9b1";
  expect(report, hash_of(report, "outcome_hash") == expected,
         "outcome_hash differs from " + expected);
}

struct WorkloadSpec {
  const char* name;
  std::uint64_t canonical_seed;
  /// step_ms.tail percentile: the highest of p90, p95 and p99 that has
  /// at least 10 samples beyond it at min_reps repetitions.
  double tail_pct;
  int min_reps;
  Rep (*rep)(const Options&, Spans&);
  /// Set-up alone, for extra set-up samples; null when set-up is spread
  /// over the many runs of one repetition.
  std::unique_ptr<Cluster> (*setup)(const Options&, Spans&);
  /// Checks a full-size run at the canonical seed against the outputs the
  /// repo has recorded (BENCH_parallel.json, BENCH_scale.json, the DST
  /// swarm's pinned outcome hash), and a tiny run against the library
  /// call the workload re-drives.
  void (*verify)(const Options&, Report&);
};

const WorkloadSpec kWorkloads[] = {
    // 540 steps per repetition.
    {"nominal_fig2", 42, 99.0, 2, nominal_rep, nullptr, nullptr},
    // 100 steps per repetition.
    {"classic_steady", 42, 90.0, 1, classic_rep, classic_build,
     verify_classic},
    // 67 steps per repetition.
    {"federated_burst", 42, 90.0, 2, burst_rep, burst_build, verify_burst},
    // 1024 steps per repetition.
    {"chaos_swarm", 1, 99.0, 1, chaos_rep, nullptr, verify_chaos},
};

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Per-layer numbers from the traced repetitions' spans.
void add_span_metrics(const Spans& spans, Report& report) {
  Values& v = report.values;
  v["workload.gen_ms"] =
      median_or_zero(spans.per_run_totals_ms("workload.gen"));
  v["cluster.build_ms"] =
      median_or_zero(spans.per_run_totals_ms("cluster.build"));
  v["cluster.step_ms"] = median_or_zero(spans.durations_ms("cluster.step"));
  v["cluster.audit_us"] =
      1e3 * median_or_zero(spans.durations_ms("cluster.audit"));
  v["cluster.collect_ms"] =
      median_or_zero(spans.durations_ms("cluster.collect"));
  v["cluster.redistribution_ms"] =
      median_or_zero(spans.durations_ms("cluster.redistribution"));
  v["dst.schedule_us"] =
      1e3 * median_or_zero(spans.durations_ms("dst.schedule"));
  v["dst.oracle_us"] = 1e3 * median_or_zero(spans.durations_ms("dst.oracle"));
  v["telemetry.prom_export_ms"] =
      median_or_zero(spans.durations_ms("telemetry.prom_export"));
  v["telemetry.perfetto_export_ms"] =
      median_or_zero(spans.durations_ms("telemetry.perfetto_export"));

  // Host nanoseconds inside the simulation steps of one repetition, per
  // unit of work each layer does there.
  const double step_ns =
      1e6 * median_or_zero(spans.per_run_totals_ms("cluster.step"));
  auto per = [&](const char* count) {
    double n = v.count(count) ? v.at(count) : 0.0;
    return n > 0 ? step_ns / n : 0.0;
  };
  v["sim.ns_per_event"] = per("sim.events");
  v["net.ns_per_delivery"] = per("net.delivered");
  v["arena.ns_per_node_period"] = per("arena.node_periods");
  v["trace.overhead_s"] =
      median_or_zero(report.traced_wall_s) - median_or_zero(report.wall_s);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadSpec& w : kWorkloads) out.emplace_back(w.name);
    return out;
  }();
  return names;
}

Report run_workload(const Options& o, Spans& spans) {
  const WorkloadSpec& spec = find_workload(o.workload);
  Report report;
  report.tail_pct = spec.tail_pct;
  int min_reps = o.tiny ? 1 : spec.min_reps;
  // A traced run alternates untraced and traced repetitions.
  if (o.trace) min_reps = std::max(min_reps, 2);

  // Past the minimum, start a repetition only if it should end in time.
  const std::int64_t start = now_ns();
  double last_rep_s = 0.0;
  for (int i = 0;
       i < min_reps || elapsed_s(start, now_ns()) + last_rep_s <= o.seconds;
       ++i) {
    const std::int64_t rep_start = now_ns();
    const bool traced = o.trace && i % 2 == 1;
    spans.set_enabled(traced);
    spans.set_run(i);
    Rep rep = spec.rep(o, spans);
    if (i == 0) {
      report.hashes = rep.hashes;
      report.values = rep.values;
      report.ops = rep.ops;
      report.ops_failed = rep.ops_failed;
    } else if (rep.hashes != report.hashes) {
      report.failures.push_back("repetition " + std::to_string(i) +
                                " did not reproduce repetition 0");
    }
    for (std::string& f : rep.failures)
      if (report.failures.size() < kMaxFailuresKept)
        report.failures.push_back(std::move(f));
    if (traced) {
      report.traced_wall_s.push_back(rep.wall_s);
    } else {
      report.wall_s.push_back(rep.wall_s);
      report.setup_s.push_back(rep.setup_s);
      report.step_ms.insert(report.step_ms.end(), rep.step_ms.begin(),
                            rep.step_ms.end());
    }
    ++report.reps;
    last_rep_s = elapsed_s(rep_start, now_ns());
  }
  spans.set_enabled(false);

  // setup_s is a median over at least five set-ups.
  while (spec.setup && report.setup_s.size() < 5) {
    Spans off;
    const std::int64_t t0 = now_ns();
    auto cl = spec.setup(o, off);
    report.setup_s.push_back(elapsed_s(t0, now_ns()));
  }

  if (o.trace) add_span_metrics(spans, report);
  report.values.erase("arena.node_periods");
  if (spec.verify && (o.tiny || o.seed == spec.canonical_seed))
    spec.verify(o, report);
  return report;
}

}  // namespace perfbench
