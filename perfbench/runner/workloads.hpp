// The benchmark's four workloads. Each runs closed-loop on one thread
// from inputs derived from the seed, repeats while another repetition fits
// in the measuring time, checks its outputs, and reports host-time samples
// plus the deterministic outputs of one repetition.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  /// Alternate untraced and traced repetitions, recording spans in the
  /// traced ones.
  bool trace = false;
  /// Tiny sizes for the self-test; also cross-checks each re-driven
  /// workload against the library call it mirrors.
  bool tiny = false;
};

struct Report {
  /// Host-time samples. setup_s has one entry per set-up (at least
  /// five where set-up is a phase of its own); wall_s one per untraced
  /// repetition; step_ms every step of every untraced repetition.
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  std::vector<double> step_ms;
  /// The step-time percentile reported as step_ms.tail: fixed per
  /// workload so that every run leaves at least ten samples beyond it.
  double tail_pct = 90.0;
  int reps = 0;
  /// Deterministic outputs of the first repetition; every later
  /// repetition must reproduce the hashes exactly.
  std::vector<std::pair<std::string, std::string>> hashes;
  std::map<std::string, double> values;
  /// An op is a power request (a swarm run in chaos_swarm); a failed op
  /// is a request timeout (a violating or wedged run).
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  /// Failed output checks; empty means the outputs are correct.
  std::vector<std::string> failures;
};

const std::vector<std::string>& workload_names();

Report run_workload(const Options& options, Spans& spans);

}  // namespace perfbench
