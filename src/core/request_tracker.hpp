// Requester-side transaction bookkeeping, shared by every node that
// issues power requests (the Penelope node core and the central client).
//
// A requester has at most one request outstanding. When it times out,
// its send time moves into a bounded "stale" map: the responder already
// debited its pool, so a grant that arrives late still carries real
// watts, and its true waiting time still belongs in the turnaround
// distribution. Every incoming grant first passes the at-most-once
// TxnWindow (PROTOCOL.md "Delivery semantics"), then match() says which
// request it answers. What to do with each match is the owner's policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/units.hpp"
#include "core/protocol.hpp"
#include "core/txn_window.hpp"

namespace penelope::core {

/// Bound a txn -> sent-time map: drop entries older than `horizon`, then,
/// if still above `cap`, evict oldest entries until the cap holds. The
/// horizon prune alone can delete nothing when a loss burst makes every
/// entry recent — the hard cap is what actually bounds memory. Exposed
/// for tests.
void bound_stale_map(
    std::unordered_map<std::uint64_t, common::Ticks>& stale,
    common::Ticks horizon, std::size_t cap);

class RequestTracker {
 public:
  /// Hard cap on the stale map: the horizon prune alone cannot bound it
  /// when every entry is recent.
  static constexpr std::size_t kStaleCap = 256;
  /// Entries older than this many periods are certainly dead: the
  /// fabric's redelivery horizon is far shorter than 64 control periods.
  static constexpr common::Ticks kStaleHorizonPeriods = 64;

  struct Request {
    std::uint64_t txn = kNoTxn;
    common::Ticks sent_at = 0;
    std::int32_t peer = -1;
  };

  enum class Match : std::uint8_t {
    kOutstanding,  ///< answers the outstanding request (now resolved)
    kLate,         ///< answers a request that already timed out
    kUnknown,      ///< answers nothing this requester remembers
  };

  struct GrantMatch {
    Match match = Match::kUnknown;
    /// The answered request; sent_at is meaningful unless kUnknown.
    Request request;
  };

  explicit RequestTracker(common::Ticks period)
      : stale_horizon_(kStaleHorizonPeriods * period) {}

  /// A request left: it is now the one outstanding transaction.
  void sent(const Request& request) { outstanding_ = request; }

  const std::optional<Request>& outstanding() const { return outstanding_; }
  /// Transaction id of the outstanding request, kNoTxn if none.
  std::uint64_t outstanding_txn() const {
    return outstanding_ ? outstanding_->txn : kNoTxn;
  }

  /// The outstanding request timed out: it moves into the stale map
  /// (bounded here, so entries whose grants were genuinely lost cannot
  /// accumulate over a long lossy run) and is returned.
  Request expire(common::Ticks now);

  /// Which request a first-sighting grant answers. An outstanding or
  /// stale match is consumed.
  GrantMatch match(std::uint64_t txn);

  /// At-most-once window over everything this requester receives.
  TxnWindow& window() { return window_; }

  /// Crash: all of it is volatile state.
  void reset();

  /// Timed-out requests whose grants may still arrive.
  std::size_t stale_entries() const { return stale_.size(); }

 private:
  common::Ticks stale_horizon_;
  std::optional<Request> outstanding_;
  std::unordered_map<std::uint64_t, common::Ticks> stale_;
  TxnWindow window_;
};

}  // namespace penelope::core
