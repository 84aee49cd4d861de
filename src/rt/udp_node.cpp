#include "rt/udp_node.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "net/codec.hpp"

namespace penelope::rt {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}
}  // namespace

UdpPenelopeNode::UdpPenelopeNode(UdpNodeConfig config,
                                 std::vector<DemandPhase> demand_script)
    : RtNode(config, config.id, std::move(demand_script),
             config.seed ^ 0x2545f491ULL),
      config_(config),
      rng_(config.seed ^ (0x9e3779b9ULL * (config.id + 1))),
      rx_rng_(config.seed ^ (0x85ebca6bULL * (config.id + 1))) {
  if (config_.flight_recorder_capacity > 0)
    recorder_.enable(config_.flight_recorder_capacity);
  telemetry::Labels labels{{"node", std::to_string(config_.id)}};
  observer.register_counters(registry_, "udp", config_.id, recorder_);
  packets_received_ = registry_.counter(
      "udp_packets_received_total", labels, "datagrams received");
  decode_failures_ = registry_.counter(
      "udp_decode_failures_total", labels, "undecodable datagrams");
  heartbeats_received_ =
      registry_.counter("udp_heartbeats_received_total", labels,
                        "membership beacons decoded");
  stale_heartbeats_ =
      registry_.counter("udp_stale_heartbeats_total", labels,
                        "beacons quarantined for an old incarnation");
  malformed_dropped_ =
      registry_.counter("udp_malformed_dropped_total", labels,
                        "datagrams rejected by the frame checksum layer");
  frames_corrupted_ =
      registry_.counter("udp_frames_corrupted_total", labels,
                        "outgoing frames bit-flipped by the nemesis");
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  // No SO_REUSEADDR: on a UDP socket it lets a port-0 bind return an
  // ephemeral port another live socket already holds, so two nodes (of
  // two concurrently running clusters) would share an address and read
  // each other's datagrams. UDP has no TIME_WAIT to reuse around.
  // A receive timeout lets the receiver thread poll its stop token.
  timeval timeout{};
  timeout.tv_usec = 20'000;  // 20 ms
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof timeout);

  sockaddr_in addr = loopback_addr(config_.port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
}

UdpPenelopeNode::~UdpPenelopeNode() {
  stop_decider();
  stop_receiver();
  if (fd_ >= 0) ::close(fd_);
}

void UdpPenelopeNode::set_peers(std::vector<UdpPeer> peers) {
  for (const auto& peer : peers) {
    PEN_CHECK_MSG(peer.id != config_.id, "a node cannot peer with itself");
  }
  peers_ = std::move(peers);
}

void UdpPenelopeNode::start() {
  PEN_CHECK(ok());
  PEN_CHECK_MSG(!peers_.empty(), "set_peers before start");
  receiver_thread_ =
      std::jthread([this](std::stop_token st) { receiver_loop(st); });
  decider_thread_ =
      std::jthread([this](std::stop_token st) { decider_loop(st); });
}

void UdpPenelopeNode::stop_decider() {
  if (decider_thread_.joinable()) {
    decider_thread_.request_stop();
    grant_box().close();
    decider_thread_.join();
  }
}

void UdpPenelopeNode::stop_receiver() {
  if (receiver_thread_.joinable()) {
    receiver_thread_.request_stop();
    receiver_thread_.join();
  }
  // With both threads joined this thread owns the core's decider side:
  // bank every grant that arrived too late for the decider, so shutdown
  // conserves power.
  stop_decider();
  const common::Ticks now = wall_ticks();
  land_grants(now);
  for (const GrantMsg& msg : unqueued_grants_)
    core().on_grant(now, msg.from, msg.grant);
  unqueued_grants_.clear();
}

void UdpPenelopeNode::land_grants(common::Ticks now) {
  while (auto msg = grant_box().try_pop())
    core().on_grant(now, msg->from, msg->grant);
}

std::uint16_t UdpPenelopeNode::port_of(int peer) const {
  for (const UdpPeer& p : peers_)
    if (p.id == peer) return p.port;
  PEN_CHECK_MSG(false, "unknown peer");
  return 0;
}

int UdpPenelopeNode::peer_at(std::uint16_t port) const {
  for (const UdpPeer& p : peers_)
    if (p.port == port) return p.id;
  return -1;  // not a configured peer (a test harness, a stray sender)
}

bool UdpPenelopeNode::send_request(std::int32_t peer,
                                   const core::PowerRequest& request) {
  return send_frame(port_of(peer), net::WirePayload{request}, rng_, 0.0);
}

bool UdpPenelopeNode::send_grant(std::int32_t /*peer*/,
                                 const core::PowerGrant& grant) {
  // Replies go back to the datagram's source address.
  return send_frame(reply_port_, net::WirePayload{grant}, rx_rng_,
                    grant.watts);
}

void UdpPenelopeNode::send_push(std::int32_t, const core::PowerPush&) {
  PEN_CHECK_MSG(false, "push gossip is not wired into the UDP node");
}

std::int32_t UdpPenelopeNode::draw_peer() {
  return peers_[rng_.next_below(static_cast<std::uint32_t>(peers_.size()))]
      .id;
}

bool UdpPenelopeNode::send_to_port(
    std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  sockaddr_in addr = loopback_addr(port);
  ssize_t sent =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  return sent == static_cast<ssize_t>(bytes.size());
}

bool UdpPenelopeNode::send_frame(std::uint16_t port,
                                 const net::WirePayload& payload,
                                 common::Rng& rng, double watts_at_risk) {
  std::vector<std::uint8_t> bytes = net::encode_frame(payload);
  bool corrupted = false;
  if (config_.corrupt_probability > 0.0 &&
      rng.chance(config_.corrupt_probability)) {
    // One random bit flip anywhere in the frame. The FNV-1a checksum
    // (bijective per-byte step) detects every single-bit flip, so the
    // receiver is guaranteed to drop this frame.
    std::size_t byte = rng.next_below(
        static_cast<std::uint32_t>(bytes.size()));
    bytes[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    corrupted = true;
  }
  bool sent = send_to_port(port, bytes);
  if (corrupted && sent) {
    frames_corrupted_.inc();
    if (watts_at_risk > 0.0) {
      // The grant left this node's ledger (its pool debited it) and
      // will never arrive: charge the stranded ledger so the cluster's
      // conservation identity stays exact.
      double prev = corrupt_stranded_.load(std::memory_order_relaxed);
      while (!corrupt_stranded_.compare_exchange_weak(
          prev, prev + watts_at_risk, std::memory_order_relaxed)) {
      }
    }
  }
  return sent;
}

void UdpPenelopeNode::crash_restart() {
  detector_reset_.store(true, std::memory_order_release);
  crash_requested_.store(true, std::memory_order_release);
}

void UdpPenelopeNode::receiver_loop(std::stop_token stop) {
  common::set_log_node(config_.id);
  std::uint8_t buffer[256];
  while (!stop.stop_requested()) {
    if (detector_reset_.exchange(false, std::memory_order_acq_rel)) {
      // The restart forgets the peers this receiver had vouched for.
      detector_ = core::FailureDetector(core::MembershipConfig{});
    }
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    ssize_t received =
        ::recvfrom(fd_, buffer, sizeof buffer, 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (received < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;  // timeout: re-check the stop token
      }
      PEN_LOG_WARN("udp node %d: recvfrom: %s", config_.id,
                   std::strerror(errno));
      continue;
    }
    packets_received_.inc();

    net::CheckedDecode checked =
        net::decode_checked(buffer, static_cast<std::size_t>(received));
    if (!checked) {
      // Hostile or bit-flipped bytes: drop, count, keep serving. A real
      // fault storm can burst this path, so the warning is rate-limited.
      malformed_dropped_.inc();
      decode_failures_.inc();
      PEN_LOG_WARN_RATED(64,
                         "udp node %d: dropping malformed datagram "
                         "(%s, %zd bytes)",
                         config_.id,
                         net::decode_error_name(checked.error), received);
      continue;
    }
    auto& payload = checked.payload;

    const std::uint16_t port = ntohs(from.sin_port);
    if (const auto* request = std::get_if<core::PowerRequest>(&*payload)) {
      reply_port_ = port;
      core().on_request(wall_ticks(), peer_at(port), *request);
    } else if (const auto* grant =
                   std::get_if<core::PowerGrant>(&*payload)) {
      // Deduplicated and matched by the core on the decider thread; a
      // closed (or full) mailbox leaves it for stop_receiver to bank.
      GrantMsg msg{peer_at(port), *grant};
      if (!grant_box().try_push(msg)) unqueued_grants_.push_back(msg);
    } else if (const auto* beat =
                   std::get_if<core::Heartbeat>(&*payload)) {
      heartbeats_received_.inc();
      // A beacon from an older incarnation than the highest seen is a
      // reordered pre-crash datagram: quarantined, not evidence.
      if (detector_.observe_heartbeat(beat->node, beat->incarnation,
                                      wall_ticks()) ==
          core::MembershipSignal::kStaleQuarantined) {
        stale_heartbeats_.inc();
      }
    } else {
      decode_failures_.inc();
    }
  }
}

void UdpPenelopeNode::decider_loop(std::stop_token stop) {
  common::set_log_node(config_.id);
  const common::Ticks start = wall_ticks();
  start_script(start);

  common::Ticks next_tick = start + config_.period;
  while (!stop.stop_requested()) {
    std::this_thread::sleep_until(to_time_point(next_tick));
    if (stop.stop_requested()) break;
    common::Ticks now = wall_ticks();

    if (crash_requested_.exchange(false, std::memory_order_acq_rel)) {
      // Grants queued for the dead incarnation land (deduplicated) before
      // the crash seizes the pool, and the restart self-reclaims it all.
      land_grants(now);
      core().restart(core().crash());
      incarnation_.fetch_add(1, std::memory_order_acq_rel);
    }

    if (config_.heartbeats) {
      // Liveness beacon naming this node's current incarnation; fire
      // and forget — a lost beacon just means one more missed period on
      // the peers' suspicion clocks.
      net::WirePayload beacon{core::Heartbeat{
          config_.id, incarnation_.load(std::memory_order_acquire)}};
      for (const auto& peer : peers_) {
        (void)send_frame(peer.port, beacon, rng_, 0.0);
      }
    }

    decide(now);
    next_tick += config_.period;
  }
}

UdpNodeReport UdpPenelopeNode::report() const {
  UdpNodeReport report;
  report.id = config_.id;
  report.final_cap = core().cap();
  report.final_pool = core().pool().available();
  report.grants_received = observer.grants_applied.value();
  report.timeouts = observer.timeouts.value();
  report.packets_received = packets_received_.value();
  report.decode_failures = decode_failures_.value();
  report.duplicates_dropped = observer.duplicates_dropped.value();
  report.heartbeats_received = heartbeats_received_.value();
  report.stale_heartbeats = stale_heartbeats_.value();
  report.udp_malformed_dropped = malformed_dropped_.value();
  report.frames_corrupted = frames_corrupted_.value();
  report.corrupt_stranded_watts =
      corrupt_stranded_.load(std::memory_order_relaxed);
  report.incarnation = incarnation_.load(std::memory_order_acquire);
  report.decider = core().decider().stats();
  return report;
}

// ---------------------------------------------------------------------------
// UdpCluster

UdpCluster::UdpCluster(int n_nodes, const UdpNodeConfig& base_config,
                       std::vector<std::vector<DemandPhase>> scripts)
    : initial_cap_(base_config.initial_cap_watts) {
  PEN_CHECK(n_nodes >= 2);
  PEN_CHECK(scripts.size() == static_cast<std::size_t>(n_nodes));
  for (int i = 0; i < n_nodes; ++i) {
    UdpNodeConfig config = base_config;
    config.id = i;
    config.port = 0;  // kernel-assigned
    config.seed = base_config.seed + static_cast<std::uint64_t>(i);
    nodes_.push_back(std::make_unique<UdpPenelopeNode>(
        config, std::move(scripts[static_cast<std::size_t>(i)])));
  }
  // Exchange the kernel-assigned ports.
  std::vector<UdpPeer> all;
  for (const auto& node : nodes_) {
    all.push_back(UdpPeer{node->id(), node->port()});
  }
  for (auto& node : nodes_) {
    std::vector<UdpPeer> peers;
    for (const auto& peer : all) {
      if (peer.id != node->id()) peers.push_back(peer);
    }
    node->set_peers(std::move(peers));
  }
}

bool UdpCluster::ok() const {
  for (const auto& node : nodes_) {
    if (!node->ok()) return false;
  }
  return true;
}

void UdpCluster::run_for(common::Ticks duration) {
  for (auto& node : nodes_) node->start();
  std::this_thread::sleep_for(std::chrono::microseconds(duration));
  // Two-phase shutdown: deciders stop issuing requests, receivers keep
  // answering/banking for a grace window so in-flight grants land, then
  // everything stops.
  for (auto& node : nodes_) node->stop_decider();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& node : nodes_) node->stop_receiver();
}

std::vector<UdpNodeReport> UdpCluster::reports() const {
  std::vector<UdpNodeReport> reports;
  for (const auto& node : nodes_) reports.push_back(node->report());
  return reports;
}

double UdpCluster::total_live_watts() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->cap() + node->pool_watts();
  }
  return total;
}

double UdpCluster::budget() const {
  return initial_cap_ * static_cast<double>(nodes_.size());
}

double UdpCluster::corrupt_stranded_watts() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->report().corrupt_stranded_watts;
  }
  return total;
}

std::vector<telemetry::MetricSample> UdpCluster::metrics_snapshot() const {
  std::vector<telemetry::MetricSample> merged;
  for (const auto& node : nodes_) {
    auto samples = node->metrics_snapshot();
    merged.insert(merged.end(),
                  std::make_move_iterator(samples.begin()),
                  std::make_move_iterator(samples.end()));
  }
  return merged;
}

std::vector<telemetry::TxnRecord> UdpCluster::flight_records() const {
  std::vector<telemetry::TxnRecord> merged;
  for (const auto& node : nodes_) {
    auto records = node->flight_recorder().snapshot();
    merged.insert(merged.end(), records.begin(), records.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const telemetry::TxnRecord& a,
                      const telemetry::TxnRecord& b) { return a.at < b.at; });
  return merged;
}

}  // namespace penelope::rt
