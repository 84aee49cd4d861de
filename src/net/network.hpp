// Simulated message-passing network on top of the discrete-event engine.
//
// Models the properties the paper's evaluation depends on:
//   * per-message latency with jitter (turnaround-time floors),
//   * random loss (lossy fabric),
//   * node failures (the Figure 3 server-kill experiment),
//   * network partitions (mentioned as a centralized failure mode in §1).
//
// Delivery is a scheduled simulator event that carries the message and
// invokes the destination's registered handler; the network never
// reorders equal-latency messages (the event queue is FIFO at equal
// timestamps), and all jitter comes from a seeded Rng so runs are
// reproducible.
//
// Randomness is per source node: each sender owns an independent Rng
// stream (loss/duplicate/reorder/latency draws) and message-id counter,
// both derived only from (config seed, node id). That makes a node's
// draw sequence — and therefore the whole run — independent of how other
// nodes' sends interleave, which is what lets sharded execution keep the
// serial trace bit-identical for any shard count.
//
// Beyond loss, the fabric can inject the two faults a real UDP transport
// exhibits: duplication (an extra delayed copy of the same message id)
// and reordering (a large latency spike that makes an earlier send arrive
// after later ones). Both draw from the sender's stream, and both draw
// nothing when their probability is zero, so existing seeds replay
// bit-identically with the faults disabled.
//
// The send→deliver path performs zero heap allocations in steady state
// (DESIGN.md §11): payloads are a trivially-copyable variant stored
// inline in the Message, node tables are dense vectors indexed by
// NodeId, and each in-flight copy lives inside its own delivery event —
// the closure {this, Message} fits sim::EventFn's inline buffer
// (static_asserted in network.cpp), so delivering reads the message
// from the event being fired rather than from a side table.
// Endpoints are a per-node u32 index into a small handler table, so one
// handler registered over a NodeId range serves a whole population.
// After warm-up (event-heap high-water mark reached), sending and
// delivering touch the allocator not at all — pinned by the
// net.zero_alloc ctest case (bench_network --alloc-check).
//
// One engine, two scheduling modes (DESIGN.md §12). The network always
// runs over a sim::ShardedSimulator. With one shard it schedules every
// delivery directly on that shard's heap, so equal-tick arrivals run in
// send order. With K >= 2 shards it stages *every* send — intra- and
// inter-shard — into per-execution-context buffers, and a barrier hook
// flushes them in canonical (arrival time, message id, duplicate) order
// into the destination shards' heaps. Because message ids are per source
// node, the canonical order is independent of the shard layout; because
// every sampled latency is >= the latency floor (== the engine's
// lookahead), every staged arrival lands at or after the window boundary
// that flushes it. Stats, staging buffers and duplicate tracking are
// per execution context, so windows touch no shared mutable state.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/message.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace penelope::net {

struct LatencyModel {
  /// Fixed one-way latency component.
  common::Ticks base = common::from_millis(0.05);  // 50 us
  /// Gaussian jitter stddev added to base (truncated at >= floor).
  common::Ticks jitter_stddev = common::from_millis(0.01);
  /// Hard lower bound on every one-way latency (including duplicated
  /// copies, before any reorder delay is added). This is the lookahead a
  /// conservative sharded run derives its window width from: no message
  /// can arrive sooner than `floor` after its send. 0 behaves as 1 tick,
  /// the truncation the jitter always had.
  common::Ticks floor = 0;

  common::Ticks effective_floor() const { return floor > 1 ? floor : 1; }
};

struct NetworkConfig {
  LatencyModel latency;
  /// Probability any message is silently lost in the fabric.
  double loss_probability = 0.0;
  std::uint64_t seed = 1;
  /// Probability a message that survived loss/partition is delivered
  /// twice: a second copy (Message::duplicate = true, same id) is
  /// scheduled with its own sampled latency.
  double duplicate_probability = 0.0;
  /// Probability a scheduled copy gets an extra delay drawn uniformly
  /// from [reorder_delay / 2, reorder_delay], inverting its arrival
  /// order relative to later sends.
  double reorder_probability = 0.0;
  /// Upper bound of the reordering delay. The default (5 ms, 100x the
  /// base latency) inverts ordering against concurrent traffic; chaos
  /// configs raise it past the protocol timeout to force late grants.
  common::Ticks reorder_delay = common::from_millis(5.0);
  /// Probability a message is corrupted on the wire: one bit of its
  /// encoded frame is flipped at delivery and the frame must survive
  /// decode_checked (it never does — the checksum catches every
  /// single-bit flip), so the message is dropped and counted. Draws
  /// nothing at zero, like the other fault probabilities.
  double corrupt_probability = 0.0;
};

/// The stochastic fault knobs as one value, so a fault schedule can
/// switch the fabric between calm and hostile regimes mid-run (a
/// "rates burst" is a pair of set_fault_rates events).
struct FaultRates {
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
};

struct NetworkStats {
  std::uint64_t sent = 0;        ///< logical sends (copies not counted)
  std::uint64_t delivered = 0;   ///< handler invocations (copies counted)
  std::uint64_t dropped_loss = 0;        ///< random fabric loss
  std::uint64_t dropped_dead_node = 0;   ///< src or dst failed
  std::uint64_t dropped_partition = 0;   ///< src/dst in different islands
  std::uint64_t dropped_no_endpoint = 0; ///< dst never registered
  std::uint64_t dropped_one_way = 0;     ///< asymmetric (one-way) block
  std::uint64_t dropped_corrupt = 0;     ///< wire corruption, checksum caught
  std::uint64_t duplicated = 0;          ///< extra copies injected
  std::uint64_t reordered = 0;           ///< copies given a reorder delay
  std::uint64_t corrupted = 0;           ///< copies given a wire bit flip
  std::uint64_t burst_delayed = 0;       ///< copies delayed by a latency burst
  std::uint64_t paused_held = 0;         ///< deliveries queued at a paused node
  std::uint64_t node_failures = 0;   ///< alive->failed transitions
  std::uint64_t node_recoveries = 0; ///< failed->alive transitions
  /// Wire-encoded payload bytes across logical sends (duplicated copies
  /// share their original's payload and add nothing), for the telemetry
  /// registry's traffic-volume series.
  std::uint64_t payload_bytes_sent = 0;

  std::uint64_t dropped_total() const {
    return dropped_loss + dropped_dead_node + dropped_partition +
           dropped_no_endpoint + dropped_one_way + dropped_corrupt;
  }
};

/// Why a message never reached its destination handler. The cluster's
/// drop handler uses this to decide whether the lost watts are merely
/// stranded (loss/partition: the peer is still alive and its view of
/// the ledger intact) or reclaimable against the dead destination.
enum class DropReason : std::uint8_t {
  kLoss,
  kDeadNode,
  kPartition,
  kNoEndpoint,
  kOneWay,    ///< asymmetric block: src->dst severed, dst->src intact
  kCorrupt,   ///< frame corrupted on the wire, rejected by decode_checked
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;
  using DropHandler = std::function<void(const Message&, DropReason)>;

  /// Deliveries run on `engine`. With one shard they are scheduled
  /// directly; with more, `shard_of[node]` maps every node the run will
  /// ever address to its shard, sends stage into per-context buffers,
  /// and a barrier hook (registered here) flushes them in canonical
  /// order.
  Network(sim::ShardedSimulator& engine, NetworkConfig config,
          std::vector<int> shard_of = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register (or replace) the delivery handler for `node`.
  void register_endpoint(NodeId node, Handler handler);

  /// Register (or replace) one handler for every node in [first, last).
  /// The handler tells the nodes apart by `msg.dst`. A later per-node
  /// register_endpoint/remove_endpoint inside the range overrides only
  /// that node.
  void register_endpoint_range(NodeId first, NodeId last, Handler handler);

  /// Remove an endpoint entirely (distinct from failing it: messages to a
  /// removed endpoint count as dropped_no_endpoint).
  void remove_endpoint(NodeId node);

  /// Handler-table slots in use or free for reuse (the empty "no
  /// endpoint" entry included). Replaced handlers are recycled, so this
  /// stays bounded by the number of distinct live registrations.
  std::size_t handler_table_size() const { return handlers_.size(); }

  /// Send a payload; returns the assigned message id, or 0 if the message
  /// was dropped at send time (dead source). Drops at delivery time (dead
  /// destination, loss, partition) still return a valid id.
  std::uint64_t send(NodeId src, NodeId dst, Payload payload);

  /// --- fault injection -------------------------------------------------

  /// Mark a node failed: it stops receiving, and sends from it are
  /// dropped. Delivery events already in flight to it are dropped on
  /// arrival, matching a crash that loses the NIC. Idempotent: failing
  /// an already-failed node is a no-op (no double-counted transition,
  /// no duplicate log line). Sharded mode: barrier context only.
  void fail_node(NodeId node);
  /// Undo fail_node: the node receives and sends again. Idempotent the
  /// same way. Orthogonal to partitions — a node recovered inside a
  /// partition island still only reaches its island until the partition
  /// heals (covered in network_test.cpp).
  void recover_node(NodeId node);
  bool node_alive(NodeId node) const;

  /// Split the network into islands; messages crossing island boundaries
  /// are dropped. Nodes absent from every island communicate freely with
  /// each other (island -1). Sharded mode: barrier context only.
  void set_partition(const std::vector<std::vector<NodeId>>& islands);
  void clear_partition();

  /// Asymmetric (one-way) partition: messages from any node in `from`
  /// to any node in `to` are dropped at send time; the reverse
  /// direction is untouched. Replaces any previous one-way block.
  /// Orthogonal to symmetric partitions. Sharded: barrier context only.
  void set_one_way_block(const std::vector<NodeId>& from,
                         const std::vector<NodeId>& to);
  void clear_one_way_block();

  /// Per-link latency burst: every copy sent by `src` while now < until
  /// gets `extra` ticks added on top of its sampled latency (jitter
  /// spike / congested uplink). Adds no Rng draws, so a run with no
  /// bursts armed is bit-identical to one where the feature does not
  /// exist. Sharded: barrier context only.
  void set_latency_burst(NodeId src, common::Ticks extra,
                         common::Ticks until);

  /// Pause a node: a process stall that preserves volatile state.
  /// Deliveries to it queue instead of invoking the handler, and its
  /// own sends are held in the NIC; resume_node replays both sides in
  /// canonical (arrival, id, duplicate) order. Unlike fail_node no
  /// message is dropped and no watts strand. Idempotent. Sharded:
  /// barrier context only.
  void pause_node(NodeId node);
  void resume_node(NodeId node);
  bool node_paused(NodeId node) const;

  /// Swap the stochastic fault knobs (loss/duplicate/reorder/corrupt)
  /// mid-run; a fault schedule uses a pair of these to make a bounded
  /// "hostile weather" window. Sharded: barrier context only.
  void set_fault_rates(const FaultRates& rates);
  FaultRates fault_rates() const;

  /// Observer invoked for every dropped message with the message that
  /// was lost and why (loss, dead node, partition, missing endpoint).
  /// The cluster layer uses this to account for power stranded in lost
  /// grant/donation messages, and the reason to tag dead-node strands
  /// for later reclamation. For a duplicated message the handler fires
  /// at most once — only when the last in-flight copy drops and no copy
  /// was delivered — so watts are never stranded twice (or stranded when
  /// the other copy actually arrived). In sharded mode it runs in the
  /// context that observed the drop (sender's shard for send-time drops,
  /// destination's shard for delivery-time drops), so it must only touch
  /// state that is safe there — the cluster handler writes per-context
  /// metrics slots and atomics only.
  void set_drop_handler(DropHandler handler) {
    drop_handler_ = std::move(handler);
  }

  /// Aggregated statistics. Sharded mode: merged across contexts; call
  /// from a barrier or after the run.
  const NetworkStats& stats() const;

  /// The engine lookahead this configuration supports: every one-way
  /// latency sample is >= this.
  common::Ticks lookahead() const {
    return config_.latency.effective_floor();
  }

  /// The sampled one-way latency distribution, exposed for tests. Draws
  /// from `src`'s stream.
  common::Ticks sample_latency(NodeId src = 0);

  /// Staged-send high-water mark across contexts (0 with one shard).
  std::size_t staging_capacity() const;

 private:
  /// Copies still in flight for a duplicated message id; absent for
  /// messages that were never duplicated.
  struct CopyState {
    int outstanding = 0;
    bool any_delivered = false;
  };

  /// Per-source-node randomness: the draw sequence a node's sends
  /// consume, independent of every other node.
  struct SourceState {
    common::Rng rng;
    std::uint64_t next_msg = 1;
    SourceState() : rng(0) {}
  };

  /// A send waiting for the window barrier (staged mode only).
  struct StagedSend {
    common::Ticks at = 0;  ///< arrival time
    std::uint8_t tracked = 0;  ///< id has a duplicate-copy tracking entry
    Message msg;
  };

  /// Mutable state owned by one execution context (row 0 for the
  /// barrier/control context and the one-shard engine, row s + 1 for
  /// shard s's windows; see ShardedSimulator::current_context). No two
  /// contexts ever touch the same row inside a window; barriers merge on
  /// demand.
  struct ContextState {
    NetworkStats stats;
    std::unordered_map<std::uint64_t, CopyState> copies;
    std::vector<StagedSend> staged;
    std::size_t staged_high_water = 0;
  };

  bool same_island(NodeId a, NodeId b) const;
  bool one_way_blocked(NodeId src, NodeId dst) const;
  /// Runs in the destination's execution context: the engine a delivery
  /// is scheduled on determines the context it fires in.
  void deliver(const Message& msg);
  /// Schedule a delivery event on `engine` that carries `msg` by value.
  void schedule_delivery(sim::Simulator& engine, common::Ticks at,
                         const Message& msg);
  /// Schedule (one shard) or stage (K >= 2) a copy arriving at `at`.
  void schedule_copy(ContextState& ctx, const Message& msg,
                     common::Ticks at, bool tracked);
  common::Ticks sample_copy_delay(SourceState& src, NetworkStats& stats);
  void flush_staged();
  /// Schedule a staged or replayed copy on its destination's shard,
  /// counting a tracked copy in that shard's context (staged mode).
  void schedule_into_shard(const StagedSend& staged, common::Ticks at);
  /// The destination shard of `node`, or -1 (control engine) when the
  /// shard map does not cover it.
  int dst_shard(NodeId node) const;
  /// Take a handler-table slot for `handler`, referenced by `nodes`
  /// endpoints; release_handler() drops one reference and recycles the
  /// slot when none remain.
  std::uint32_t acquire_handler(Handler handler, std::uint32_t nodes);
  void release_handler(std::uint32_t entry);
  SourceState& source_state(NodeId src);
  void grow_sources(std::size_t size);
  ContextState& context() {
    return contexts_[sim::ShardedSimulator::current_context()];
  }

  sim::ShardedSimulator& engine_;
  /// K >= 2: sends stage and flush at barriers. K == 1: direct scheduling.
  const bool staged_;
  std::vector<int> shard_of_;  ///< staged mode only
  NetworkConfig config_;
  DropHandler drop_handler_;
  /// Dense NodeId-indexed tables: node ids are small and contiguous in
  /// every topology the cluster layer builds (clients 0..N-1, server N),
  /// so a vector probe replaces the seed's unordered_map hash+chase on
  /// the per-delivery path. endpoint_of_[node] indexes handlers_; entry
  /// 0 is the permanently empty "no endpoint" slot. A 4-byte index per
  /// node keeps the per-delivery load in a table a few times smaller than
  /// one std::function per node would be, and the handler table itself
  /// stays a handful of cache lines when ranges are registered.
  struct HandlerSlot {
    Handler fn;
    std::uint32_t refs = 0;  ///< endpoints pointing here
  };
  std::vector<std::uint32_t> endpoint_of_;
  std::vector<HandlerSlot> handlers_{1};
  std::vector<std::uint32_t> free_handlers_;
  std::vector<std::uint8_t> failed_;
  std::vector<std::int32_t> island_of_;
  /// One-way block membership flags (asymmetric partition). A send is
  /// dropped iff one_way_active_ && asym_from_[src] && asym_to_[dst].
  std::vector<std::uint8_t> asym_from_;
  std::vector<std::uint8_t> asym_to_;
  bool one_way_active_ = false;
  /// Per-source latency bursts: copies sent while now < until get extra
  /// ticks. Zero entries add nothing and draw nothing.
  struct Burst {
    common::Ticks extra = 0;
    common::Ticks until = 0;
  };
  std::vector<Burst> bursts_;
  /// Paused nodes ("process stall"): inbound deliveries and outbound
  /// sends queue here until resume. The inbox row for node n is only
  /// touched by n's delivery context, the outbox row by n's send
  /// context, and pause/resume run at barriers — same ownership rule as
  /// the context rows. Outbox StagedSend.at stores the *sampled delay*
  /// (not an absolute arrival): the message departs at resume.
  std::vector<std::uint8_t> paused_;
  std::vector<std::vector<StagedSend>> paused_inbox_;
  std::vector<std::vector<StagedSend>> paused_outbox_;
  /// Per-source-node streams. Direct mode grows lazily; staged mode is
  /// pre-sized from shard_of_ so windows never resize it.
  std::vector<SourceState> sources_;
  /// One row per execution context (exactly one with one shard).
  std::vector<ContextState> contexts_;
  /// Scratch for the canonical flush sort; reaches a high-water mark and
  /// stays allocation-free afterwards.
  std::vector<StagedSend> flush_scratch_;
  mutable NetworkStats merged_stats_;
  bool partitioned_ = false;
};

}  // namespace penelope::net
