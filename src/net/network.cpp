#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "net/codec.hpp"

namespace penelope::net {

namespace {

// Grow a dense NodeId-indexed table so `node` is a valid index.
template <typename T>
void ensure_slot(std::vector<T>& table, NodeId node, const T& fill) {
  if (static_cast<std::size_t>(node) >= table.size())
    table.resize(static_cast<std::size_t>(node) + 1, fill);
}

std::uint64_t source_seed(std::uint64_t seed, NodeId src) {
  std::uint64_t state =
      seed ^ (0x9e3779b97f4a7c15ULL *
              (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) +
               1));
  return common::splitmix64(state);
}

// Message ids carry their source in the high bits: (src+1) << 40 plus a
// per-source counter. Unique across the run, and — the property the
// canonical sharded merge sorts on — totally ordered in a way that does
// not depend on how sends from different nodes interleaved.
std::uint64_t make_msg_id(NodeId src, std::uint64_t counter) {
  return ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) + 1)
          << 40) |
         counter;
}

// Lift a simulator Payload into the wire codec's variant (same
// alternatives minus monostate, which never crosses a wire).
std::optional<WirePayload> wire_payload_of(const Payload& payload) {
  return std::visit(
      [](const auto& m) -> std::optional<WirePayload> {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return std::nullopt;
        } else {
          return WirePayload{m};
        }
      },
      payload);
}

void accumulate(NetworkStats& into, const NetworkStats& from) {
  into.sent += from.sent;
  into.delivered += from.delivered;
  into.dropped_loss += from.dropped_loss;
  into.dropped_dead_node += from.dropped_dead_node;
  into.dropped_partition += from.dropped_partition;
  into.dropped_no_endpoint += from.dropped_no_endpoint;
  into.dropped_one_way += from.dropped_one_way;
  into.dropped_corrupt += from.dropped_corrupt;
  into.duplicated += from.duplicated;
  into.reordered += from.reordered;
  into.corrupted += from.corrupted;
  into.burst_delayed += from.burst_delayed;
  into.paused_held += from.paused_held;
  into.node_failures += from.node_failures;
  into.node_recoveries += from.node_recoveries;
  into.payload_bytes_sent += from.payload_bytes_sent;
}

}  // namespace

Network::Network(sim::ShardedSimulator& engine, NetworkConfig config,
                 std::vector<int> shard_of)
    : engine_(engine), staged_(engine.shards() > 1), config_(config) {
  PEN_CHECK_MSG(engine.lookahead() <= lookahead(),
                "engine window is wider than the latency floor allows");
  contexts_.resize(static_cast<std::size_t>(engine.contexts()));
  if (!staged_) return;
  shard_of_ = std::move(shard_of);
  for (int s : shard_of_) PEN_CHECK(s >= 0 && s < engine.shards());
  // Pre-size every node-indexed table windows read or write, so no
  // window ever resizes shared storage.
  grow_sources(shard_of_.size());
  failed_.assign(shard_of_.size(), 0);
  asym_from_.assign(shard_of_.size(), 0);
  asym_to_.assign(shard_of_.size(), 0);
  bursts_.assign(shard_of_.size(), Burst{});
  paused_.assign(shard_of_.size(), 0);
  paused_inbox_.resize(shard_of_.size());
  paused_outbox_.resize(shard_of_.size());
  engine_.add_barrier_hook([this] { flush_staged(); });
}

void Network::grow_sources(std::size_t size) {
  std::size_t old = sources_.size();
  sources_.resize(size);
  for (std::size_t n = old; n < size; ++n) {
    sources_[n].rng = common::Rng(
        source_seed(config_.seed, static_cast<NodeId>(n)));
  }
}

Network::SourceState& Network::source_state(NodeId src) {
  PEN_CHECK(src >= 0);
  auto idx = static_cast<std::size_t>(src);
  if (idx >= sources_.size()) {
    PEN_CHECK_MSG(!staged_, "a staged send's source must be in shard_of");
    grow_sources(idx + 1);
  }
  return sources_[idx];
}

int Network::dst_shard(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= shard_of_.size())
    return -1;
  return shard_of_[static_cast<std::size_t>(node)];
}

std::uint32_t Network::acquire_handler(Handler handler,
                                       std::uint32_t nodes) {
  PEN_CHECK(handler != nullptr);
  std::uint32_t entry;
  if (free_handlers_.empty()) {
    entry = static_cast<std::uint32_t>(handlers_.size());
    handlers_.emplace_back();
  } else {
    entry = free_handlers_.back();
    free_handlers_.pop_back();
  }
  handlers_[entry] = HandlerSlot{std::move(handler), nodes};
  return entry;
}

void Network::release_handler(std::uint32_t entry) {
  if (entry == 0) return;
  HandlerSlot& slot = handlers_[entry];
  if (--slot.refs == 0) {
    slot.fn = nullptr;
    free_handlers_.push_back(entry);
  }
}

void Network::register_endpoint(NodeId node, Handler handler) {
  register_endpoint_range(node, node + 1, std::move(handler));
}

void Network::register_endpoint_range(NodeId first, NodeId last,
                                      Handler handler) {
  PEN_CHECK(first >= 0 && first < last);
  ensure_slot(endpoint_of_, last - 1, std::uint32_t{0});
  const std::uint32_t entry = acquire_handler(
      std::move(handler), static_cast<std::uint32_t>(last - first));
  for (auto n = static_cast<std::size_t>(first);
       n < static_cast<std::size_t>(last); ++n) {
    release_handler(endpoint_of_[n]);
    endpoint_of_[n] = entry;
  }
}

void Network::remove_endpoint(NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= endpoint_of_.size())
    return;
  release_handler(endpoint_of_[static_cast<std::size_t>(node)]);
  endpoint_of_[static_cast<std::size_t>(node)] = 0;
}

common::Ticks Network::sample_latency(NodeId src) {
  common::Rng& rng = source_state(src).rng;
  double jitter = rng.normal(
      0.0, static_cast<double>(config_.latency.jitter_stddev));
  auto latency = config_.latency.base + static_cast<common::Ticks>(jitter);
  return std::max<common::Ticks>(latency, config_.latency.effective_floor());
}

bool Network::same_island(NodeId a, NodeId b) const {
  if (!partitioned_) return true;
  auto island = [this](NodeId n) -> std::int32_t {
    if (n < 0 || static_cast<std::size_t>(n) >= island_of_.size()) return -1;
    return island_of_[static_cast<std::size_t>(n)];
  };
  return island(a) == island(b);
}

std::uint64_t Network::send(NodeId src, NodeId dst, Payload payload) {
  ContextState& cx = context();
  if (!node_alive(src)) {
    ++cx.stats.dropped_dead_node;
    return 0;
  }
  SourceState& source = source_state(src);
  ++cx.stats.sent;
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.id = make_msg_id(src, source.next_msg++);
  msg.sent_at = engine_.context_now();
  msg.payload = payload;
  cx.stats.payload_bytes_sent += payload_wire_bytes(msg.payload);

  if (source.rng.chance(config_.loss_probability)) {
    ++cx.stats.dropped_loss;
    if (drop_handler_) drop_handler_(msg, DropReason::kLoss);
    return msg.id;
  }
  if (!same_island(src, dst)) {
    ++cx.stats.dropped_partition;
    if (drop_handler_) drop_handler_(msg, DropReason::kPartition);
    return msg.id;
  }
  if (one_way_blocked(src, dst)) {
    ++cx.stats.dropped_one_way;
    if (drop_handler_) drop_handler_(msg, DropReason::kOneWay);
    return msg.id;
  }

  // A paused source's NIC holds every copy; it departs at resume with
  // the delay sampled here (draw sequence is identical either way).
  const bool src_paused = node_paused(src);
  const common::Ticks now = msg.sent_at;
  auto dispatch = [&](const Message& m, common::Ticks delay, bool track) {
    const Burst& burst =
        static_cast<std::size_t>(m.src) < bursts_.size()
            ? bursts_[static_cast<std::size_t>(m.src)]
            : Burst{};
    if (burst.extra > 0 && now < burst.until) {
      delay += burst.extra;
      ++cx.stats.burst_delayed;
    }
    if (src_paused) {
      paused_outbox_[static_cast<std::size_t>(m.src)].push_back(
          StagedSend{delay, static_cast<std::uint8_t>(track), m});
      ++cx.stats.paused_held;
      return;
    }
    schedule_copy(cx, m, now + delay, track);
  };

  std::uint64_t id = msg.id;
  bool tracked = false;
  if (source.rng.chance(config_.duplicate_probability)) {
    ++cx.stats.duplicated;
    tracked = true;
    // Direct scheduling tracks both copies now; staged copies are
    // counted in the destination's context when the flush schedules them.
    if (!staged_) cx.copies[id] = CopyState{2, false};
    // The copy shares the original's payload bytes by trivial copy of the
    // inline variant — cheaper than a shared_ptr indirection would be
    // (no allocation, no refcount; measured in BENCH_net.json), and the
    // payload stays immutable because handlers only see `const Message&`.
    Message copy = msg;
    copy.duplicate = true;
    dispatch(copy, sample_copy_delay(source, cx.stats), tracked);
  }
  // Corruption marks the original copy only (a duplicated copy is an
  // independent datagram on a real fabric; one clean copy surviving is
  // exactly the case the copy-tracking drop resolution handles).
  const std::size_t wire_bytes = payload_wire_bytes(msg.payload);
  if (wire_bytes > 0 && source.rng.chance(config_.corrupt_probability)) {
    ++cx.stats.corrupted;
    const auto frame_bits =
        static_cast<std::uint32_t>(8 * (kFrameHeaderBytes + wire_bytes));
    msg.corrupt = 1 + source.rng.next_below(frame_bits);
  }
  dispatch(msg, sample_copy_delay(source, cx.stats), tracked);
  return id;
}

common::Ticks Network::sample_copy_delay(SourceState& source,
                                         NetworkStats& stats) {
  common::Rng& rng = source.rng;
  double jitter = rng.normal(
      0.0, static_cast<double>(config_.latency.jitter_stddev));
  auto latency = config_.latency.base + static_cast<common::Ticks>(jitter);
  common::Ticks delay =
      std::max<common::Ticks>(latency, config_.latency.effective_floor());
  if (rng.chance(config_.reorder_probability)) {
    ++stats.reordered;
    delay += static_cast<common::Ticks>(
        rng.uniform(0.5, 1.0) *
        static_cast<double>(config_.reorder_delay));
  }
  return delay;
}

void Network::schedule_delivery(sim::Simulator& engine, common::Ticks at,
                                const Message& msg) {
  // The event owns the in-flight copy: firing it hands the handler a
  // reference into the fired event, which stays put while the handler
  // schedules more events. Serial sends, the sharded flush and pause
  // replay all schedule this one closure, so one static_assert pins the
  // zero-allocation delivery path for every mode. The closure holds no
  // context index: a delivery fires on the engine of the context that
  // owns it, so deliver() reads the context from the running engine.
  auto delivery = [this, msg] { deliver(msg); };
  static_assert(sim::EventFn::kFitsInline<decltype(delivery)>,
                "a delivery event must carry its Message inline");
  engine.schedule_at(at, std::move(delivery));
}

void Network::schedule_copy(ContextState& cx, const Message& msg,
                            common::Ticks at, bool tracked) {
  if (!staged_) {
    schedule_delivery(engine_.shard(0), at, msg);
    return;
  }
  // Stage everything — intra-shard sends too. Delivery order must not
  // depend on the shard layout, and the conservative bound guarantees
  // the arrival is at or past the window boundary that will flush it.
  cx.staged.push_back(StagedSend{at, static_cast<std::uint8_t>(tracked), msg});
  if (cx.staged.size() > cx.staged_high_water)
    cx.staged_high_water = cx.staged.size();
}

void Network::flush_staged() {
  flush_scratch_.clear();
  for (auto& cx : contexts_) {
    if (cx.staged.empty()) continue;
    flush_scratch_.insert(flush_scratch_.end(), cx.staged.begin(),
                          cx.staged.end());
    cx.staged.clear();
  }
  if (flush_scratch_.empty()) return;
  // Canonical merge order: (arrival, source-ordered message id, original
  // before duplicate). Independent of which context staged what, hence
  // of the shard count — the heart of the K-invariance contract.
  std::sort(flush_scratch_.begin(), flush_scratch_.end(),
            [](const StagedSend& a, const StagedSend& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.msg.id != b.msg.id) return a.msg.id < b.msg.id;
              return a.msg.duplicate < b.msg.duplicate;
            });
  for (const StagedSend& staged : flush_scratch_)
    schedule_into_shard(staged, staged.at);
}

void Network::schedule_into_shard(const StagedSend& staged,
                                  common::Ticks at) {
  // The destination's shard owns the delivery; nodes outside the shard
  // map deliver on the control engine. A tracked copy is counted in the
  // context it will be delivered in.
  const int shard = dst_shard(staged.msg.dst);
  if (staged.tracked != 0) {
    const std::size_t ctxi = static_cast<std::size_t>(shard + 1);
    ++contexts_[ctxi].copies[staged.msg.id].outstanding;
  }
  schedule_delivery(shard >= 0 ? engine_.shard(shard) : engine_.control(),
                    at, staged.msg);
}

void Network::deliver(const Message& msg) {
  ContextState& cx = context();

  // A paused destination queues the frame in its NIC: no drop, no copy
  // resolution — the tracking entry stays live until the replayed
  // delivery resolves it after resume. Runs in dst's context, and the
  // inbox row belongs to dst, so the ownership rule holds.
  if (node_paused(msg.dst)) {
    paused_inbox_[static_cast<std::size_t>(msg.dst)].push_back(StagedSend{
        engine_.context_now(), static_cast<std::uint8_t>(0), msg});
    ++cx.stats.paused_held;
    return;
  }

  // A duplicated message strands its payload only if every copy is lost;
  // the tracking entry lives until the last copy resolves. The empty()
  // probe keeps the hash lookup off the hot path entirely when
  // duplication is disabled (the common case).
  auto copy_it = cx.copies.empty() ? cx.copies.end() : cx.copies.find(msg.id);
  bool last_copy = true;
  bool other_delivered = false;
  if (copy_it != cx.copies.end()) {
    CopyState& state = copy_it->second;
    --state.outstanding;
    last_copy = state.outstanding == 0;
    other_delivered = state.any_delivered;
  }
  auto resolve_drop = [&](std::uint64_t& counter, DropReason reason) {
    ++counter;
    if (drop_handler_ && last_copy && !other_delivered)
      drop_handler_(msg, reason);
    if (copy_it != cx.copies.end() && last_copy) cx.copies.erase(copy_it);
  };
  if (!node_alive(msg.dst)) {
    resolve_drop(cx.stats.dropped_dead_node, DropReason::kDeadNode);
    return;
  }
  std::uint32_t entry = 0;
  if (msg.dst >= 0 && static_cast<std::size_t>(msg.dst) < endpoint_of_.size())
    entry = endpoint_of_[static_cast<std::size_t>(msg.dst)];
  if (entry == 0) {
    resolve_drop(cx.stats.dropped_no_endpoint, DropReason::kNoEndpoint);
    return;
  }
  if (msg.corrupt != 0) {
    // Run the real wire: encode the frame the sender would have put on
    // the fabric, flip the drawn bit, and ask the hardened decoder. The
    // FNV-1a frame checksum catches every single-bit flip, so the frame
    // is rejected and dropped here; the decode_checked round-trip (not
    // an assumption) is what this nemesis exists to exercise.
    const std::optional<WirePayload> wire = wire_payload_of(msg.payload);
    if (wire.has_value()) {
      std::vector<std::uint8_t> frame = encode_frame(*wire);
      const std::uint32_t bit = msg.corrupt - 1;
      if (bit / 8 < frame.size()) frame[bit / 8] ^= 1u << (bit % 8);
      CheckedDecode checked = decode_checked(frame.data(), frame.size());
      if (!checked) {
        resolve_drop(cx.stats.dropped_corrupt, DropReason::kCorrupt);
        return;
      }
    }
  }
  if (copy_it != cx.copies.end()) {
    copy_it->second.any_delivered = true;
    if (last_copy) cx.copies.erase(copy_it);
  }
  ++cx.stats.delivered;
  handlers_[entry].fn(msg);
}

const NetworkStats& Network::stats() const {
  if (contexts_.size() == 1) return contexts_[0].stats;
  merged_stats_ = NetworkStats{};
  for (const auto& cx : contexts_) accumulate(merged_stats_, cx.stats);
  return merged_stats_;
}

std::size_t Network::staging_capacity() const {
  std::size_t total = 0;
  for (const auto& cx : contexts_) total += cx.staged_high_water;
  return total;
}

void Network::fail_node(NodeId node) {
  if (node < 0) return;
  ensure_slot(failed_, node, std::uint8_t{0});
  if (failed_[static_cast<std::size_t>(node)] != 0) return;
  failed_[static_cast<std::size_t>(node)] = 1;
  ++context().stats.node_failures;
  PEN_LOG_INFO("network: node %d failed at t=%.3fs", node,
               common::to_seconds(engine_.context_now()));
}

void Network::recover_node(NodeId node) {
  if (node < 0) return;
  ensure_slot(failed_, node, std::uint8_t{0});
  if (failed_[static_cast<std::size_t>(node)] == 0) return;
  failed_[static_cast<std::size_t>(node)] = 0;
  ++context().stats.node_recoveries;
  PEN_LOG_INFO("network: node %d recovered at t=%.3fs", node,
               common::to_seconds(engine_.context_now()));
}

bool Network::node_alive(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= failed_.size())
    return true;
  return failed_[static_cast<std::size_t>(node)] == 0;
}

void Network::set_partition(
    const std::vector<std::vector<NodeId>>& islands) {
  island_of_.clear();
  for (std::size_t i = 0; i < islands.size(); ++i)
    for (NodeId n : islands[i]) {
      if (n < 0) continue;
      ensure_slot(island_of_, n, std::int32_t{-1});
      island_of_[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(i);
    }
  partitioned_ = true;
}

void Network::clear_partition() {
  island_of_.clear();
  partitioned_ = false;
}

bool Network::one_way_blocked(NodeId src, NodeId dst) const {
  if (!one_way_active_) return false;
  auto flagged = [](const std::vector<std::uint8_t>& flags, NodeId n) {
    return n >= 0 && static_cast<std::size_t>(n) < flags.size() &&
           flags[static_cast<std::size_t>(n)] != 0;
  };
  return flagged(asym_from_, src) && flagged(asym_to_, dst);
}

void Network::set_one_way_block(const std::vector<NodeId>& from,
                                const std::vector<NodeId>& to) {
  std::fill(asym_from_.begin(), asym_from_.end(), 0);
  std::fill(asym_to_.begin(), asym_to_.end(), 0);
  for (NodeId n : from) {
    if (n < 0) continue;
    ensure_slot(asym_from_, n, std::uint8_t{0});
    asym_from_[static_cast<std::size_t>(n)] = 1;
  }
  for (NodeId n : to) {
    if (n < 0) continue;
    ensure_slot(asym_to_, n, std::uint8_t{0});
    asym_to_[static_cast<std::size_t>(n)] = 1;
  }
  one_way_active_ = !from.empty() && !to.empty();
  PEN_LOG_INFO("network: one-way block %zu->%zu nodes at t=%.3fs",
               from.size(), to.size(),
               common::to_seconds(engine_.context_now()));
}

void Network::clear_one_way_block() {
  std::fill(asym_from_.begin(), asym_from_.end(), 0);
  std::fill(asym_to_.begin(), asym_to_.end(), 0);
  one_way_active_ = false;
}

void Network::set_latency_burst(NodeId src, common::Ticks extra,
                                common::Ticks until) {
  if (src < 0) return;
  ensure_slot(bursts_, src, Burst{});
  bursts_[static_cast<std::size_t>(src)] = Burst{extra, until};
}

void Network::pause_node(NodeId node) {
  if (node < 0) return;
  ensure_slot(paused_, node, std::uint8_t{0});
  if (paused_.size() > paused_inbox_.size()) {
    paused_inbox_.resize(paused_.size());
    paused_outbox_.resize(paused_.size());
  }
  if (paused_[static_cast<std::size_t>(node)] != 0) return;
  paused_[static_cast<std::size_t>(node)] = 1;
  PEN_LOG_INFO("network: node %d paused at t=%.3fs", node,
               common::to_seconds(engine_.context_now()));
}

void Network::resume_node(NodeId node) {
  if (!node_paused(node)) return;
  auto idx = static_cast<std::size_t>(node);
  paused_[idx] = 0;
  const common::Ticks now = engine_.context_now();
  // Replay both sides in canonical (arrival, id, duplicate) order so the
  // unblocked history is independent of the queueing order. Inbox frames
  // arrive now; outbox frames depart now and arrive after the delay
  // sampled at send time (StagedSend.at stores that delay).
  struct Replay {
    common::Ticks at;
    StagedSend staged;
  };
  std::vector<Replay> replays;
  replays.reserve(paused_inbox_[idx].size() + paused_outbox_[idx].size());
  for (const StagedSend& staged : paused_inbox_[idx])
    replays.push_back(Replay{now, staged});
  for (const StagedSend& staged : paused_outbox_[idx])
    replays.push_back(Replay{now + staged.at, staged});
  paused_inbox_[idx].clear();
  paused_outbox_[idx].clear();
  std::sort(replays.begin(), replays.end(),
            [](const Replay& a, const Replay& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.staged.msg.id != b.staged.msg.id)
                return a.staged.msg.id < b.staged.msg.id;
              return a.staged.msg.duplicate < b.staged.msg.duplicate;
            });
  for (const Replay& replay : replays) {
    // A held frame skipped the staged flush, so it is scheduled (and a
    // tracked copy counted) here the way the flush would have; direct
    // sends counted their copies at send time.
    if (staged_) {
      schedule_into_shard(replay.staged, replay.at);
    } else {
      schedule_delivery(engine_.shard(0), replay.at, replay.staged.msg);
    }
  }
  PEN_LOG_INFO("network: node %d resumed at t=%.3fs (%zu frames replayed)",
               node, common::to_seconds(now), replays.size());
}

bool Network::node_paused(NodeId node) const {
  return node >= 0 && static_cast<std::size_t>(node) < paused_.size() &&
         paused_[static_cast<std::size_t>(node)] != 0;
}

void Network::set_fault_rates(const FaultRates& rates) {
  config_.loss_probability = rates.loss;
  config_.duplicate_probability = rates.duplicate;
  config_.reorder_probability = rates.reorder;
  config_.corrupt_probability = rates.corrupt;
}

FaultRates Network::fault_rates() const {
  return FaultRates{config_.loss_probability,
                    config_.duplicate_probability,
                    config_.reorder_probability,
                    config_.corrupt_probability};
}

}  // namespace penelope::net
