#include "core/request_tracker.hpp"

#include "common/check.hpp"

namespace penelope::core {

void bound_stale_map(
    std::unordered_map<std::uint64_t, common::Ticks>& stale,
    common::Ticks horizon, std::size_t cap) {
  if (stale.size() <= cap) return;
  std::erase_if(stale,
                [horizon](const auto& kv) { return kv.second < horizon; });
  // A loss burst can leave every entry inside the horizon; evict oldest
  // until the cap holds. Linear min-scans are fine at cap = 256.
  while (stale.size() > cap) {
    auto oldest = stale.begin();
    for (auto it = stale.begin(); it != stale.end(); ++it) {
      if (it->second < oldest->second) oldest = it;
    }
    stale.erase(oldest);
  }
}

RequestTracker::Request RequestTracker::expire(common::Ticks now) {
  PEN_CHECK(outstanding_.has_value());
  Request expired = *outstanding_;
  outstanding_.reset();
  stale_[expired.txn] = expired.sent_at;
  bound_stale_map(stale_, now - stale_horizon_, kStaleCap);
  return expired;
}

RequestTracker::GrantMatch RequestTracker::match(std::uint64_t txn) {
  if (outstanding_ && outstanding_->txn == txn) {
    GrantMatch m{Match::kOutstanding, *outstanding_};
    outstanding_.reset();
    return m;
  }
  // Only expire() grows the stale map, and it bounds it on the spot, so
  // a lookup never needs to prune.
  auto stale = stale_.find(txn);
  if (stale == stale_.end()) return GrantMatch{Match::kUnknown, {txn}};
  GrantMatch m{Match::kLate, {txn, stale->second}};
  stale_.erase(stale);
  return m;
}

void RequestTracker::reset() {
  outstanding_.reset();
  stale_.clear();
  window_.reset();
}

}  // namespace penelope::core
