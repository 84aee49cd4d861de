// perfbench: runs one named workload of the repo benchmark in this
// process and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny 1] [--git-sha <sha>] [--spans-out <path>]
//
// Output: human-readable lines, a `record {...}` line carrying every
// measurement with the run's provenance (host cores, build type,
// compiler, git SHA, seed), and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// The list of each, with units, is kEndToEnd / kPerLayer below and must
// match BENCHMARK.json.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// A seed no workload was tuned on, for confirming later claims.
constexpr std::uint64_t kHeldOutSeed = 7919;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Host-time metrics only: every workload reports all of them, and none
// is constant across seeds.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"step_ms.p50", "ms"},
    {"step_ms.tail", "ms"},
    {"peak_rss_mb", "MB"},
};

// The per-layer list also carries the simulated outcomes (turnaround,
// message rate, Figure 2 speedups, t50). They are deterministic for a
// seed, some are identical for every seed, and some exist on one
// workload only, so they pin "same results" here rather than bound a
// host-time comparison.
const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_high_water", "count"},
    {"net.sent", "count"},
    {"net.delivered", "count"},
    {"net.dropped", "count"},
    {"net.delivered_per_sent", "ratio"},
    {"net.payload_bytes", "bytes"},
    {"net.ns_per_delivery", "ns"},
    {"net.duplicated", "count"},
    {"net.corrupted", "count"},
    {"core.requests", "count"},
    {"core.timeouts", "count"},
    {"core.timeout_ratio", "ratio"},
    {"core.decider_steps", "count"},
    {"core.duplicates_dropped", "count"},
    {"core.unknown_txn_grants", "count"},
    {"core.reclaims", "count"},
    {"core.false_suspicions", "count"},
    {"turnaround_sim_ms.p50", "sim_ms"},
    {"turnaround_sim_ms.p99", "sim_ms"},
    {"msgs_per_node_s", "msg/node/sim_s"},
    {"cluster.build_ms", "ms"},
    {"cluster.step_ms", "ms"},
    {"cluster.audit_us", "us"},
    {"cluster.collect_ms", "ms"},
    {"cluster.redistribution_ms", "ms"},
    {"arena.active_frac", "ratio"},
    {"arena.ns_per_node_period", "ns"},
    {"hierarchy.fed_msgs", "count"},
    {"hierarchy.fed_watts_moved", "W"},
    {"central.processed", "count"},
    {"central.queue_wait_us", "sim_us"},
    {"central.peak_queue", "count"},
    {"central.overflow_drops", "count"},
    {"workload.gen_ms", "ms"},
    {"telemetry.flight_records", "count"},
    {"telemetry.prom_export_ms", "ms"},
    {"telemetry.perfetto_export_ms", "ms"},
    {"dst.runs", "count"},
    {"dst.violating_runs", "count"},
    {"dst.events_per_run", "count"},
    {"dst.schedule_us", "us"},
    {"dst.oracle_us", "us"},
    {"fig2.penelope_speedup", "ratio"},
    {"fig2.slurm_speedup", "ratio"},
    {"t50_sim_s", "sim_s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny 1] [--git-sha <sha>] "
               "[--spans-out <path>]\n",
               error.c_str());
  std::exit(2);
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values)
    out += (out.size() > 1 ? "," : "") + json_number(v);
  return out + "]";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string git_sha = "unknown";
  std::string spans_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--tiny") {
        o.tiny = std::stoi(value) != 0;
      } else if (key == "--git-sha") {
        git_sha = value;
      } else if (key == "--spans-out") {
        spans_out = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == o.workload;
  if (!known) usage("unknown workload '" + o.workload + "'");

  Spans spans;
  Report report = run_workload(o, spans);
  if (!spans_out.empty() && !spans.write_json(spans_out))
    report.failures.push_back("could not write spans to " + spans_out);

  std::map<std::string, double> metrics = report.values;
  metrics["setup_s"] = penelope::common::median(report.setup_s);
  metrics["wall_s"] = penelope::common::median(report.wall_s);
  metrics["step_ms.p50"] = penelope::common::percentile(report.step_ms, 50.0);
  metrics["step_ms.tail"] =
      penelope::common::percentile(report.step_ms, report.tail_pct);
  metrics["peak_rss_mb"] = peak_rss_mb();

  // The contract line's metrics: end-to-end, or per-layer when traced.
  std::string metrics_json = "{";
  for (const MetricDef& def : o.trace ? kPerLayer : kEndToEnd) {
    double value = metrics.count(def.name) ? metrics.at(def.name) : 0.0;
    if (!std::isfinite(value)) {
      report.failures.push_back(std::string("non-finite ") + def.name);
      value = 0.0;
    }
    metrics_json += std::string(metrics_json.size() > 1 ? "," : "") +
                    json_string(def.name) + ":{\"value\":" +
                    json_number(value) + ",\"unit\":" +
                    json_string(def.unit) + "}";
  }
  metrics_json += "}";

  const double beyond = static_cast<double>(report.step_ms.size()) *
                        (1.0 - report.tail_pct / 100.0);
  std::printf("workload %s seed %" PRIu64 " (held-out seed %" PRIu64
              ") trace %d: %d repetitions in %.1f s budget\n",
              o.workload.c_str(), o.seed, kHeldOutSeed, o.trace ? 1 : 0,
              report.reps, o.seconds);
  std::printf("ops %" PRIu64 " ops_failed %" PRIu64 "\n", report.ops,
              report.ops_failed);
  for (const auto& [label, hash] : report.hashes)
    std::printf("%s %s\n", label.c_str(), hash.c_str());
  std::printf("step_ms.tail is p%g over %zu steps (%.0f beyond it)\n",
              report.tail_pct, report.step_ms.size(), beyond);
  for (const std::string& f : report.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  // Provenance plus every value measured, for later comparison.
  std::string record =
      "{\"workload\":" + json_string(o.workload) +
      ",\"seed\":" + std::to_string(o.seed) +
      ",\"held_out_seed\":" + std::to_string(kHeldOutSeed) +
      ",\"trace\":" + (o.trace ? "1" : "0") +
      ",\"tiny\":" + (o.tiny ? "1" : "0") +
      ",\"host_cores\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
      ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
      ",\"git_sha\":" + json_string(git_sha) +
      ",\"reps\":" + std::to_string(report.reps) +
      ",\"ops\":" + std::to_string(report.ops) +
      ",\"ops_failed\":" + std::to_string(report.ops_failed) +
      ",\"tail_pct\":" + json_number(report.tail_pct) +
      ",\"step_samples\":" + std::to_string(report.step_ms.size()) +
      ",\"setup_s_samples\":" + json_array(report.setup_s) +
      ",\"wall_s_samples\":" + json_array(report.wall_s) +
      ",\"traced_wall_s_samples\":" + json_array(report.traced_wall_s);
  record += ",\"hashes\":{";
  bool first = true;
  for (const auto& [label, hash] : report.hashes) {
    record += (first ? "" : ",") + json_string(label) + ":" + json_string(hash);
    first = false;
  }
  record += "},\"values\":{";
  first = true;
  for (const auto& [name, value] : metrics) {
    record += (first ? "" : ",") + json_string(name) + ":" + json_number(value);
    first = false;
  }
  std::printf("record %s}}\n", record.c_str());

  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"metrics\":%s}\n",
              report.failures.empty() ? "true" : "false",
              std::max<std::uint64_t>(report.ops, 1), report.ops_failed,
              metrics_json.c_str());
  return 0;
}
