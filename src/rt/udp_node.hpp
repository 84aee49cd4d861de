// Penelope over real UDP sockets.
//
// The discrete-event cluster and the in-process ThreadCluster prove the
// protocol; this driver proves the *deployment path*: each node owns a
// UDP socket (loopback in tests, any interface in a real cluster), the
// wire format is net/codec.hpp, requests go to a random peer's
// (address, port), and grants come back to the requester's socket. The
// protocol is the same core::PenelopeNode the other drivers run —
// §3.3's claim that Penelope only needs a power interface and a message
// channel, made concrete. This driver keeps the sockets, the codec, the
// corruption nemesis, heartbeats, and the crash_restart wipe.
//
// Thread structure per node:
//   * receiver thread — blocking recvfrom (with a short timeout so stop
//     requests are honoured); decodes packets; PowerRequests go to the
//     core's request side and are answered inline; PowerGrants are
//     routed to the decider thread through a mailbox; heartbeats feed a
//     receiver-owned FailureDetector.
//   * decider thread — wall-clock periodic control loop, identical in
//     shape to rt::ThreadCluster's: the core's decider side.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/membership.hpp"
#include "core/node.hpp"
#include "net/codec.hpp"
#include "power/simulated_rapl.hpp"
#include "rt/mailbox.hpp"
#include "rt/thread_cluster.hpp"

namespace penelope::rt {

struct UdpNodeConfig : RtNodeConfig {
  int id = 0;
  /// Port to bind on 127.0.0.1; 0 lets the kernel pick (read it back
  /// via port()).
  std::uint16_t port = 0;
  /// Send a membership Heartbeat beacon to every peer each period; the
  /// receiver runs beacons through a FailureDetector (PROTOCOL.md
  /// "Membership and incarnations"). Off by default: heartbeats add a
  /// datagram per peer per period, and the pre-membership tests pin
  /// packet counts.
  bool heartbeats = false;
  /// TEST-ONLY wire-corruption nemesis: probability that an outgoing
  /// frame has one random bit flipped after encoding. The FNV-1a frame
  /// checksum guarantees the receiver detects and drops every such
  /// frame, so any watts the frame carried are stranded — tracked in
  /// corrupt_stranded_watts so conservation stays checkable:
  ///   total_live + corrupt_stranded == budget.
  double corrupt_probability = 0.0;
};

struct UdpPeer {
  int id = 0;
  std::uint16_t port = 0;  ///< on 127.0.0.1
};

struct UdpNodeReport {
  int id = 0;
  double final_cap = 0.0;
  double final_pool = 0.0;
  std::uint64_t grants_received = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t decode_failures = 0;
  /// Datagrams rejected by the checked frame decoder (bad magic, bad
  /// checksum, truncated, unknown tag, malformed body). Hostile or
  /// bit-flipped traffic lands here instead of aborting the node.
  std::uint64_t udp_malformed_dropped = 0;
  /// Outgoing frames the corruption nemesis bit-flipped (test-only).
  std::uint64_t frames_corrupted = 0;
  /// Watts carried by corrupted grant frames: guaranteed dropped by the
  /// receiver's checksum, so they leave the live ledger. Conservation
  /// under corruption: sum(cap + pool) + sum(corrupt_stranded) == budget.
  double corrupt_stranded_watts = 0.0;
  /// Redelivered datagrams refused by the core's receive windows. UDP
  /// genuinely duplicates, so this can be nonzero on a healthy run.
  std::uint64_t duplicates_dropped = 0;
  /// Membership beacons decoded by the receiver (0 unless peers run
  /// with heartbeats enabled).
  std::uint64_t heartbeats_received = 0;
  /// Beacons naming an incarnation older than the highest seen for that
  /// peer: quarantined (counted, otherwise ignored) so a reordered
  /// pre-crash beacon can never pass for fresh liveness evidence.
  std::uint64_t stale_heartbeats = 0;
  /// This node's crash counter: 1 + the number of crash_restart()s.
  std::uint32_t incarnation = 1;
  core::DeciderStats decider;
};

class UdpPenelopeNode final : private RtNode {
 public:
  /// Binds the socket immediately; throws nothing — check ok().
  UdpPenelopeNode(UdpNodeConfig config,
                  std::vector<DemandPhase> demand_script);
  ~UdpPenelopeNode();

  UdpPenelopeNode(const UdpPenelopeNode&) = delete;
  UdpPenelopeNode& operator=(const UdpPenelopeNode&) = delete;

  /// False if the socket could not be created/bound (report via
  /// error()).
  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  /// The actually bound port (after kernel assignment for port 0).
  std::uint16_t port() const { return bound_port_; }
  int id() const { return config_.id; }

  /// Must be called before start(); peers may not include this node.
  void set_peers(std::vector<UdpPeer> peers);

  /// Launch receiver + decider threads.
  void start();

  /// Stop the decider (no new requests); the receiver keeps answering
  /// requests and collecting late grants until stop_receiver(), which
  /// banks whatever was collected once both threads have joined.
  void stop_decider();
  void stop_receiver();

  /// Simulate a process crash followed by an immediate restart. At its
  /// next period the decider thread lands the grants already queued for
  /// it, crashes the core (both receive windows, the outstanding request
  /// and stale map are gone — exactly what a real restart loses; pool
  /// and cap share are seized) and restarts it with that residue
  /// self-reclaimed into the fresh pool, so conservation holds; the
  /// incarnation bumps. The receiver forgets the peers it had vouched
  /// for. Subsequent heartbeats advertise the new incarnation; peers
  /// quarantine any stale pre-crash beacon still floating in the
  /// kernel's buffers. Safe to call from any thread while running.
  void crash_restart();
  std::uint32_t incarnation() const {
    return incarnation_.load(std::memory_order_acquire);
  }

  UdpNodeReport report() const;
  double cap() const { return core().cap(); }
  double pool_watts() const { return core().pool().available(); }

  /// This node's registry snapshot (counters labeled with its id).
  std::vector<telemetry::MetricSample> metrics_snapshot() const {
    return registry_.snapshot();
  }
  const telemetry::FlightRecorder& flight_recorder() const {
    return recorder_;
  }

 private:
  // RtNode's transport. send_grant runs on the receiver thread (the
  // core's request side); the rest on the decider thread.
  bool send_request(std::int32_t peer,
                    const core::PowerRequest& request) override;
  bool send_grant(std::int32_t peer, const core::PowerGrant& grant) override;
  void send_push(std::int32_t peer, const core::PowerPush& push) override;
  std::int32_t draw_peer() override;

  void receiver_loop(std::stop_token stop);
  void decider_loop(std::stop_token stop);
  /// Hand queued grants to the core (decider side).
  void land_grants(common::Ticks now);
  std::uint16_t port_of(int peer) const;
  int peer_at(std::uint16_t port) const;
  bool send_to_port(std::uint16_t port,
                    const std::vector<std::uint8_t>& bytes);
  /// Encode `payload` as a checksummed frame and send it; applies the
  /// corruption nemesis when armed. `rng` must belong to the calling
  /// thread. `watts_at_risk` is the power this frame carries: if the
  /// frame is corrupted (and the syscall still succeeds) those watts are
  /// charged to the stranded ledger, because the receiver's checksum is
  /// guaranteed to reject the frame.
  bool send_frame(std::uint16_t port, const net::WirePayload& payload,
                  common::Rng& rng, double watts_at_risk);

  UdpNodeConfig config_;
  std::vector<UdpPeer> peers_;
  int fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::string error_;

  common::Rng rng_;
  /// Corruption-nemesis draws for frames sent from the receiver thread
  /// (grant replies); rng_ covers the decider thread's sends. Two
  /// streams so the threads never share an Rng.
  common::Rng rx_rng_;
  /// Watts stranded by corrupted grant frames (receiver + decider
  /// threads both send grants' worth of power, so this is atomic).
  std::atomic<double> corrupt_stranded_{0.0};
  /// Receiver-thread state: the source port of the datagram being
  /// handled (grant replies go back to it), grants the closed mailbox
  /// refused (banked by stop_receiver), and the detector that
  /// quarantines beacons from dead incarnations.
  std::uint16_t reply_port_ = 0;
  std::vector<GrantMsg> unqueued_grants_;
  core::FailureDetector detector_{core::MembershipConfig{}};
  std::atomic<bool> detector_reset_{false};
  /// Crash counter; bumped by the decider thread when it executes a
  /// crash_restart() request, read by the decider when beaconing.
  std::atomic<std::uint32_t> incarnation_{1};
  std::atomic<bool> crash_requested_{false};

  /// Registry-backed counters (receiver + decider threads update them
  /// lock-free; snapshot aggregates the shards).
  telemetry::MetricsRegistry registry_{telemetry::Concurrency::kSharded};
  telemetry::FlightRecorder recorder_;
  telemetry::Counter packets_received_;
  telemetry::Counter decode_failures_;
  telemetry::Counter heartbeats_received_;
  telemetry::Counter stale_heartbeats_;
  telemetry::Counter malformed_dropped_;
  telemetry::Counter frames_corrupted_;

  std::jthread receiver_thread_;
  std::jthread decider_thread_;
};

/// Convenience harness: N loopback nodes wired together, run for a wall
/// duration with the usual donor/hungry demand split semantics.
class UdpCluster {
 public:
  UdpCluster(int n_nodes, const UdpNodeConfig& base_config,
             std::vector<std::vector<DemandPhase>> demand_scripts);

  bool ok() const;

  /// Start everything, sleep `duration`, stop deciders, give late
  /// grants a grace window, stop receivers.
  void run_for(common::Ticks duration);

  std::vector<UdpNodeReport> reports() const;
  double total_live_watts() const;
  double budget() const;
  /// Sum of every node's corrupt-stranded ledger; under the corruption
  /// nemesis, total_live_watts() + corrupt_stranded_watts() == budget().
  double corrupt_stranded_watts() const;

  /// Direct node access, e.g. to inject a crash_restart() mid-run.
  UdpPenelopeNode& node(int i) {
    return *nodes_.at(static_cast<std::size_t>(i));
  }

  /// Every node's registry snapshot merged into one sample vector;
  /// series stay distinct through their `node` label, so the merged
  /// vector renders to duplicate-free Prometheus text.
  std::vector<telemetry::MetricSample> metrics_snapshot() const;
  /// Every node's flight journal merged, sorted by timestamp.
  std::vector<telemetry::TxnRecord> flight_records() const;

 private:
  double initial_cap_;
  std::vector<std::unique_ptr<UdpPenelopeNode>> nodes_;
};

}  // namespace penelope::rt
