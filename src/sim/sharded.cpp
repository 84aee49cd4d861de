#include "sim/sharded.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace penelope::sim {

ShardedSimulator::ShardedSimulator(int shards, Ticks lookahead)
    : lookahead_(lookahead) {
  PEN_CHECK(shards >= 1);
  PEN_CHECK_MSG(lookahead_ >= 1,
                "conservative windows need a positive lookahead");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<Simulator>());
  if (shards == 1) {
    solo_ = shards_.front().get();
    control_ = solo_;
  } else {
    own_control_ = std::make_unique<Simulator>();
    control_ = own_control_.get();
    posts_.resize(static_cast<std::size_t>(shards) + 1);
  }
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

Ticks ShardedSimulator::windowed_context_now() const {
  int ctx = detail::t_current_shard;
  if (ctx >= 0) return shards_[static_cast<std::size_t>(ctx)]->now();
  return std::max(control_->now(), now_);
}

void ShardedSimulator::post_to_barrier(std::function<void()> fn) {
  PEN_CHECK(fn != nullptr);
  if (solo_ != nullptr) {
    fn();
    return;
  }
  int ctx = detail::t_current_shard;
  std::size_t row = ctx >= 0 ? static_cast<std::size_t>(ctx) : shards_.size();
  posts_[row].push_back(std::move(fn));
}

void ShardedSimulator::add_barrier_hook(std::function<void()> hook) {
  PEN_CHECK(hook != nullptr);
  PEN_CHECK_MSG(solo_ == nullptr, "a one-shard engine has no barriers");
  barrier_hooks_.push_back(std::move(hook));
}

void ShardedSimulator::reserve(std::size_t per_shard, std::size_t control) {
  for (auto& shard : shards_) shard->reserve(per_shard);
  if (own_control_) own_control_->reserve(control);
}

template <typename Fn>
void ShardedSimulator::for_each_heap(Fn fn) const {
  for (const auto& shard : shards_) fn(*shard);
  if (own_control_) fn(*own_control_);
}

std::uint64_t ShardedSimulator::trace_hash() const {
  // Wrapping sum: Simulator's per-engine hash is itself an
  // order-insensitive sum of per-event mixes, so adding the partial sums
  // reproduces exactly the value one engine executing everything reports.
  std::uint64_t hash = 0;
  for_each_heap([&](const Simulator& heap) { hash += heap.trace_hash(); });
  return hash;
}

std::uint64_t ShardedSimulator::executed_events() const {
  std::uint64_t total = 0;
  for_each_heap([&](const Simulator& heap) { total += heap.executed_events(); });
  return total;
}

std::size_t ShardedSimulator::pending_events() const {
  std::size_t total = 0;
  for_each_heap([&](const Simulator& heap) { total += heap.pending_events(); });
  return total;
}

std::size_t ShardedSimulator::pending_high_water() const {
  std::size_t total = 0;
  for_each_heap(
      [&](const Simulator& heap) { total += heap.pending_high_water(); });
  return total;
}

void ShardedSimulator::drain_posts() {
  // A post may itself post (it runs with context -1, so into the last
  // row); keep sweeping until a full pass finds every row empty.
  bool any = true;
  while (any) {
    any = false;
    for (auto& row : posts_) {
      if (row.empty()) continue;
      any = true;
      std::vector<std::function<void()>> batch;
      batch.swap(row);
      for (auto& fn : batch) fn();
    }
  }
}

void ShardedSimulator::run_until(Ticks deadline) {
  if (solo_ != nullptr) {
    solo_->run_until(deadline);
    return;
  }
  PEN_CHECK(deadline >= now_);
  stopped_ = false;
  stop_requested_ = false;
  for (;;) {
    drain_posts();
    if (stop_requested_) {
      stopped_ = true;
      return;
    }
    for (auto& hook : barrier_hooks_) hook();

    Ticks control_next = control_->next_event_at();
    Ticks shard_next = kNoPendingEvent;
    for (const auto& shard : shards_)
      shard_next = std::min(shard_next, shard->next_event_at());

    if (std::min(control_next, shard_next) > deadline) {
      // Drained (or only future work left): land every engine exactly on
      // the deadline so context_now() and scheduling stay consistent.
      for (auto& shard : shards_) shard->advance_to(deadline);
      control_->advance_to(deadline);
      now_ = deadline;
      return;
    }

    if (control_next <= shard_next) {
      // Control events run before any shard event at the same timestamp.
      // Every shard heap's minimum is >= control_next, so fast-forwarding
      // the shard clocks is safe — and necessary: control events reach
      // into actors (crash, restart, budget changes) whose relative
      // scheduling must see the same now() a serial run would.
      for (auto& shard : shards_) shard->advance_to(control_next);
      control_->run_until(control_next);
      now_ = control_next;
      continue;
    }

    Ticks end = shard_next + lookahead_;
    if (control_next < end) end = control_next;
    if (deadline + 1 < end) end = deadline + 1;
    run_shards_window(end);
    now_ = std::min(end, deadline);
  }
}

void ShardedSimulator::run_shards_window(Ticks end) {
  int active = 0;
  int last_active = -1;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->next_event_at() < end) {
      ++active;
      last_active = static_cast<int>(s);
    }
  }
  if (active == 0) return;
  if (active == 1) {
    // Sparse region of virtual time: no wakeups, no handshake. Sends the
    // lone shard makes still stage and flush at the next barrier, so the
    // merge order is identical to the parallel path.
    detail::t_current_shard = last_active;
    shards_[static_cast<std::size_t>(last_active)]->run_window(end);
    detail::t_current_shard = -1;
    return;
  }

  if (workers_.empty()) start_workers();
  window_end_ = end;
  done_count_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();

  detail::t_current_shard = 0;
  shards_[0]->run_window(end);
  detail::t_current_shard = -1;

  const int target = static_cast<int>(shards_.size()) - 1;
  while (done_count_.load(std::memory_order_acquire) < target)
    std::this_thread::yield();
}

void ShardedSimulator::start_workers() {
  workers_.reserve(shards_.size() - 1);
  for (int w = 0; w < static_cast<int>(shards_.size()) - 1; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

void ShardedSimulator::worker_loop(int worker) {
  const std::size_t shard = static_cast<std::size_t>(worker) + 1;
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    for (int spin = 0; spin < 2048 && epoch == seen; ++spin)
      epoch = epoch_.load(std::memory_order_acquire);
    if (epoch == seen) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return shutdown_ ||
               epoch_.load(std::memory_order_acquire) != seen;
      });
      if (shutdown_) return;
      epoch = epoch_.load(std::memory_order_acquire);
    }
    seen = epoch;
    detail::t_current_shard = static_cast<int>(shard);
    shards_[shard]->run_window(window_end_);
    detail::t_current_shard = -1;
    done_count_.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace penelope::sim
