#include "sim/simulator.hpp"

#include <utility>

#include "common/check.hpp"

namespace penelope::sim {

EventId Simulator::schedule_at(Ticks at, EventFn fn) {
  PEN_CHECK_MSG(at >= now_, "cannot schedule into the past");
  EventId id = heap_.insert(at, next_seq_++, /*period=*/0, std::move(fn));
  if (heap_.size() > pending_high_water_) pending_high_water_ = heap_.size();
  return id;
}

EventId Simulator::schedule_after(Ticks delay, EventFn fn) {
  PEN_CHECK(delay >= 0);
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_periodic(Ticks first_at, Ticks period,
                                     EventFn fn) {
  PEN_CHECK_MSG(first_at >= now_, "cannot schedule into the past");
  PEN_CHECK(period > 0);
  EventId id = heap_.insert(first_at, next_seq_++, period, std::move(fn));
  if (heap_.size() > pending_high_water_) pending_high_water_ = heap_.size();
  return id;
}

EventId Simulator::schedule_periodic_pre(Ticks first_at, Ticks period,
                                         EventFn fn) {
  PEN_CHECK_MSG(first_at >= now_, "cannot schedule into the past");
  PEN_CHECK(period > 0);
  PEN_CHECK_MSG(next_pre_seq_ < kFirstSweepSeq, "pre-lane sequence space exhausted");
  EventId id = heap_.insert(first_at, next_pre_seq_++, period, std::move(fn));
  if (heap_.size() > pending_high_water_) pending_high_water_ = heap_.size();
  return id;
}

EventId Simulator::schedule_periodic_sweep(Ticks first_at, Ticks period,
                                           EventFn fn) {
  PEN_CHECK_MSG(first_at >= now_, "cannot schedule into the past");
  PEN_CHECK(period > 0);
  PEN_CHECK_MSG(next_sweep_seq_ < kFirstNormalSeq,
                "sweep-lane sequence space exhausted");
  EventId id = heap_.insert(first_at, next_sweep_seq_++, period, std::move(fn));
  if (heap_.size() > pending_high_water_) pending_high_water_ = heap_.size();
  return id;
}

bool Simulator::set_period(EventId id, Ticks period) {
  PEN_CHECK(period > 0);
  return heap_.set_period(id, period);
}

void Simulator::cancel(EventId id) {
  if (id != kInvalidEventId) heap_.cancel(id);
}

bool Simulator::pop_and_run_next(Ticks limit) {
  TimerHeap::Fired event;
  if (!heap_.pop(limit, event)) return false;
  PEN_DCHECK(event.at >= now_);
  now_ = event.at;
  // Sweep-band firings are trace-neutral: they are engine infrastructure
  // (one per shard, so their count depends on sim_jobs), not protocol
  // events. Everything a sweep does still reaches the trace through the
  // events it causes.
  const bool sweep =
      event.seq >= kFirstSweepSeq && event.seq < kFirstNormalSeq;
  if (!sweep) {
    ++executed_;
    trace_hash_ += trace_mix(static_cast<std::uint64_t>(event.at));
  }
  event.fn(now_);
  if (event.periodic) {
    // Re-arm only if the callback did not cancel the timer, and assign
    // the re-arm sequence number *after* the callback so events it
    // scheduled at the next firing time sort ahead of that firing —
    // the order the old schedule-a-fresh-event implementation produced,
    // which the golden-trace tests pin. Pre- and sweep-lane timers
    // re-arm from their own bands so every firing keeps its lane rank
    // at tied timestamps.
    if (heap_.contains(event.id)) {
      std::uint64_t* lane = &next_seq_;
      if (event.seq < kFirstSweepSeq) {
        PEN_CHECK_MSG(next_pre_seq_ < kFirstSweepSeq,
                      "pre-lane sequence space exhausted");
        lane = &next_pre_seq_;
      } else if (sweep) {
        PEN_CHECK_MSG(next_sweep_seq_ < kFirstNormalSeq,
                      "sweep-lane sequence space exhausted");
        lane = &next_sweep_seq_;
      }
      heap_.rearm(event.id, event.at, (*lane)++, std::move(event.fn));
    }
  }
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(kNoPendingEvent)) {
  }
}

void Simulator::run_until(Ticks deadline) {
  PEN_CHECK(deadline >= now_);
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(deadline)) {
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
    heap_.advance(deadline);
  }
}

void Simulator::run_window(Ticks end) {
  while (pop_and_run_next(end - 1)) {
  }
}

std::size_t Simulator::run_steps(std::size_t n) {
  stopped_ = false;
  std::size_t done = 0;
  while (done < n && !stopped_ && pop_and_run_next(kNoPendingEvent)) ++done;
  return done;
}

PeriodicTask::PeriodicTask(Simulator& sim, Ticks first_at, Ticks period,
                           std::function<void(Ticks)> fn, TaskOrder order)
    : sim_(sim), period_(period) {
  PEN_CHECK(period_ > 0);
  PEN_CHECK(fn != nullptr);
  switch (order) {
    case TaskOrder::kPre:
      id_ = sim_.schedule_periodic_pre(first_at, period, std::move(fn));
      break;
    case TaskOrder::kSweep:
      id_ = sim_.schedule_periodic_sweep(first_at, period, std::move(fn));
      break;
    case TaskOrder::kNormal:
      id_ = sim_.schedule_periodic(first_at, period, std::move(fn));
      break;
  }
}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::cancel() {
  if (!active_) return;
  active_ = false;
  sim_.cancel(id_);
  id_ = kInvalidEventId;
}

void PeriodicTask::set_period(Ticks period) {
  PEN_CHECK(period > 0);
  period_ = period;
  if (active_) sim_.set_period(id_, period);
}

}  // namespace penelope::sim
