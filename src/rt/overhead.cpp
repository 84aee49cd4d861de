#include "rt/overhead.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "rt/thread_cluster.hpp"
#include "workload/npb.hpp"

namespace penelope::rt {

namespace {
using Clock = std::chrono::steady_clock;

double time_spin(std::uint64_t work_units) {
  auto start = Clock::now();
  volatile std::uint64_t sink = spin_kernel(work_units);
  (void)sink;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calibrate how many work units fill one second on this machine.
std::uint64_t calibrate_units_per_second() {
  std::uint64_t units = 1 << 20;
  double elapsed = time_spin(units);
  while (elapsed < 0.05) {  // get into a measurable range first
    units *= 4;
    elapsed = time_spin(units);
  }
  return static_cast<std::uint64_t>(static_cast<double>(units) / elapsed);
}

/// The "Penelope on this node" half: decider + pool-service threads
/// running beside the measured workload, against a SimulatedRapl. One
/// node means no peers: hungry steps drain the (empty) local pool and
/// their requests time out at once, matching the paper's one-node
/// overhead setup.
class SingleNodePenelope final : private RtNode {
 public:
  explicit SingleNodePenelope(const OverheadConfig& config)
      : RtNode(
            [&] {
              RtNodeConfig node;
              node.period = config.decider_period;
              return node;
            }(),
            0, {DemandPhase{150.0, common::kTicksPerSecond}}, config.seed),
        period_(config.decider_period) {
    decider_thread_ = std::jthread([this](std::stop_token st) {
      auto next = Clock::now() + std::chrono::microseconds(period_);
      start_script(wall_ticks());
      while (!st.stop_requested()) {
        std::this_thread::sleep_until(next);
        if (st.stop_requested()) break;
        decide(wall_ticks());
        next += std::chrono::microseconds(period_);
      }
    });
    // The pool-service thread: idles on a poll interval since no peer
    // traffic exists, but it wakes and takes the pool lock exactly as a
    // served node's would.
    pool_thread_ = std::jthread([this](std::stop_token st) {
      while (!st.stop_requested()) {
        std::this_thread::sleep_for(std::chrono::microseconds(period_));
        (void)core().pool().available();
      }
    });
  }

  ~SingleNodePenelope() {
    decider_thread_.request_stop();
    pool_thread_.request_stop();
  }

 private:
  // No peers: every request is refused on the spot.
  bool send_request(std::int32_t, const core::PowerRequest&) override {
    return false;
  }
  bool send_grant(std::int32_t, const core::PowerGrant&) override {
    return true;
  }
  void send_push(std::int32_t, const core::PowerPush&) override {}
  std::int32_t draw_peer() override { return -1; }

  common::Ticks period_;
  std::jthread decider_thread_;
  std::jthread pool_thread_;
};

double median_of(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

std::uint64_t spin_kernel(std::uint64_t work_units) {
  // FNV-ish mixing loop: cheap, integer-only, impossible to vectorize
  // away, and deterministic.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t i = 0; i < work_units; ++i) {
    h ^= i;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

std::vector<OverheadResult> measure_overhead(const OverheadConfig& config) {
  PEN_CHECK(config.repetitions >= 1);
  PEN_CHECK(config.work_seconds > 0.0);

  const std::uint64_t units_per_second = calibrate_units_per_second();
  const auto& apps = workload::all_apps();

  // Scale per-app spin work by the app's profile length, normalised so
  // the mean run takes ~work_seconds.
  double mean_work = 0.0;
  std::vector<double> app_work;
  for (auto app : apps) {
    double w = workload::npb_profile(app).total_work_seconds();
    app_work.push_back(w);
    mean_work += w;
  }
  mean_work /= static_cast<double>(apps.size());

  std::vector<OverheadResult> results;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    double seconds = config.work_seconds * app_work[i] / mean_work;
    auto units = static_cast<std::uint64_t>(
        seconds * static_cast<double>(units_per_second));

    OverheadResult result;
    result.workload = workload::app_name(apps[i]);
    // Interleave baseline and with-Penelope repetitions so slow drift
    // in machine state (thermal, background load) cancels instead of
    // biasing one side — and alternate which of the two runs first in
    // each pair, so warm-up always helping the second measurement does
    // not masquerade as negative overhead. At the 1%-effect level this
    // matters more than the number of repetitions.
    std::vector<double> baseline_times;
    std::vector<double> penelope_times;
    for (int rep = 0; rep < config.repetitions; ++rep) {
      if (rep % 2 == 0) {
        baseline_times.push_back(time_spin(units));
        SingleNodePenelope penelope(config);
        penelope_times.push_back(time_spin(units));
      } else {
        {
          SingleNodePenelope penelope(config);
          penelope_times.push_back(time_spin(units));
        }
        baseline_times.push_back(time_spin(units));
      }
    }
    result.baseline_seconds = median_of(std::move(baseline_times));
    result.penelope_seconds = median_of(std::move(penelope_times));
    result.overhead_fraction =
        result.penelope_seconds / result.baseline_seconds - 1.0;
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace penelope::rt
