#include "mac/mac_protocol.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"

namespace aquamac {

MacProtocol::MacProtocol(Simulator& sim, AcousticModem& modem, NeighborTable& neighbors,
                         MacConfig config, Rng rng, Logger log)
    : sim_{sim},
      modem_{modem},
      neighbors_{neighbors},
      config_{config},
      rng_{rng},
      log_{std::move(log)} {
  modem_.set_listener(this);
}

void MacProtocol::enqueue_packet(NodeId dst, std::uint32_t payload_bits, E2eHeader e2e) {
  counters_.packets_offered += 1;
  counters_.bits_offered += payload_bits;
  // Fast-drop toward a neighbor currently declared dead: burning the full
  // retry budget on a node that cannot answer starves live traffic.
  if (queue_.size() >= config_.queue_limit || neighbor_dead(dst)) {
    counters_.packets_dropped += 1;
    if (drop_handler_) drop_handler_(dst, e2e);
    return;
  }
  queue_.push_back(Packet{next_packet_id_++, dst, payload_bits, sim_.now(), 0, e2e});
  handle_packet_enqueued();
}

bool MacProtocol::neighbor_dead(NodeId node) const {
  if (config_.dead_neighbor_threshold == 0) return false;
  const auto it = peer_health_.find(node);
  return it != peer_health_.end() && it->second.dead;
}

void MacProtocol::record_handshake_silence(NodeId dst) {
  if (config_.dead_neighbor_threshold == 0 || dst == kBroadcast || dst == kNoNode) return;
  PeerHealth& health = peer_health_[dst];
  if (health.dead) return;
  health.silent_failures += 1;
  if (health.silent_failures < config_.dead_neighbor_threshold) return;
  health.dead = true;
  if (trace_ != nullptr) {
    TraceEvent event{};
    event.kind = TraceEventKind::kNeighborDead;
    event.src = dst;
    event.a = config_.dead_neighbor_threshold;
    trace_mac(event);
  }
  if (neighbor_down_hook_) neighbor_down_hook_(dst);
  // Reinstatement probe: after the interval, give the neighbor another
  // chance and re-announce ourselves. If it is still silent the next K
  // handshakes re-declare it dead, so probing is periodic until it talks.
  const std::uint64_t generation = health_generation_;
  const NodeId probed = dst;
  sim_.in(config_.dead_probe_interval, [this, probed, generation] {
    if (generation != health_generation_) return;  // reset_mac_state() ran
    const auto it = peer_health_.find(probed);
    if (it == peer_health_.end() || !it->second.dead) return;
    it->second.dead = false;
    it->second.silent_failures = 0;
    if (trace_ != nullptr) {
      TraceEvent event{};
      event.kind = TraceEventKind::kNeighborProbe;
      event.src = probed;
      trace_mac(event);
    }
    broadcast_hello();
  });
}

void MacProtocol::age_neighbors() {
  if (config_.neighbor_max_age.is_zero()) return;
  const std::vector<NodeId> evicted =
      neighbors_.evict_older_than(config_.neighbor_max_age, sim_.now());
  for (const NodeId neighbor : evicted) {
    peer_health_.erase(neighbor);
    if (trace_ != nullptr) {
      TraceEvent event{};
      event.kind = TraceEventKind::kNeighborEvicted;
      event.src = neighbor;
      event.a = config_.neighbor_max_age.count_ns();
      trace_mac(event);
    }
    if (neighbor_down_hook_) neighbor_down_hook_(neighbor);
  }
}

void MacProtocol::reset_mac_state() {
  neighbors_ = NeighborTable{};
  peer_health_.clear();
  health_generation_ += 1;
  handle_reset();
}

void MacProtocol::broadcast_hello() {
  if (modem_.transmitting()) return;
  Frame hello{};
  hello.type = FrameType::kHello;
  hello.dst = kBroadcast;
  hello.size_bits = config_.control_bits;
  transmit(hello);
}

Frame MacProtocol::make_control(FrameType type, NodeId dst) const {
  Frame frame{};
  frame.type = type;
  frame.dst = dst;
  frame.size_bits = control_frame_bits();
  return frame;
}

Frame MacProtocol::make_data(FrameType type, NodeId dst, std::uint32_t payload_bits) const {
  Frame frame{};
  frame.type = type;
  frame.dst = dst;
  frame.size_bits = payload_bits;
  frame.data_bits = payload_bits;
  return frame;
}

Frame MacProtocol::make_data_for(FrameType type, const Packet& packet) const {
  Frame frame = make_data(type, packet.dst, packet.bits);
  frame.seq = packet.id;
  frame.origin = packet.e2e.origin;
  frame.final_dst = packet.e2e.final_dst;
  frame.hop_count = packet.e2e.hop_count;
  frame.e2e_id = packet.e2e.e2e_id;
  frame.created_at = packet.e2e.created_at;
  return frame;
}

void MacProtocol::transmit(Frame frame) {
  if (stamp_hook_) stamp_hook_(frame);
  counters_.count_sent(frame);
  // The DV route ad is real piggybacked payload on every carrying frame;
  // charge it to the overhead ledger (ROADMAP 2a) instead of idealizing
  // the control plane as free bits.
  if (frame.route_valid) counters_.piggyback_info_bits += kRouteAdBits;
  if (frame.control() && frame.type != FrameType::kHello) {
    const auto entries = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(neighbors_.size()), config_.control_info_cap);
    counters_.piggyback_info_bits +=
        config_.control_info_base_bits + config_.control_info_per_entry_bits * entries;
  }
  AQUAMAC_LOG(log_, LogLevel::kDebug) << "tx " << frame.to_string();
  modem_.transmit(frame);
}

void MacProtocol::complete_head_packet(bool via_extra) {
  if (queue_.empty()) return;
  counters_.packets_sent_ok += 1;
  if (via_extra) counters_.extra_successes += 1;
  // Latency accounting lives here so the sum and its sample count can
  // never diverge (mean = total_delivery_latency / latency_samples).
  counters_.total_delivery_latency += sim_.now() - queue_.front().enqueued;
  counters_.latency_samples += 1;
  const NodeId dst = queue_.front().dst;
  const E2eHeader e2e = queue_.front().e2e;
  queue_.pop_front();
  // Custody release fires after the pop so the handler sees fresh state.
  if (sent_handler_) sent_handler_(dst, e2e);
}

void MacProtocol::drop_head_packet() {
  if (queue_.empty()) return;
  counters_.packets_dropped += 1;
  const Packet packet = queue_.front();
  queue_.pop_front();
  if (drop_handler_) drop_handler_(packet.dst, packet.e2e);
  // Exhausting a whole retry budget without one answer is the strongest
  // silence signal every protocol shares.
  record_handshake_silence(packet.dst);
}

void MacProtocol::transmit_attempt(Frame frame) {
  if (!queue_.empty() && queue_.front().retries > 0) {
    counters_.retransmitted_frames += 1;
    counters_.retransmitted_bits += frame.size_bits;
  }
  counters_.handshake_attempts += 1;
  transmit(std::move(frame));
}

bool MacProtocol::retry_or_drop_head() {
  if (queue_.empty()) return false;
  queue_.front().retries += 1;
  if (queue_.front().retries > config_.max_retries) {
    drop_head_packet();
    return true;
  }
  return false;
}

bool MacProtocol::deliver_data(const Frame& frame) {
  const auto it = delivered_seq_high_.find(frame.src);
  if (it != delivered_seq_high_.end() && frame.seq <= it->second) {
    counters_.duplicate_deliveries += 1;
    return false;
  }
  delivered_seq_high_[frame.src] = frame.seq;
  counters_.packets_delivered += 1;
  counters_.bits_delivered += frame.data_bits;
  counters_.last_delivery_time = sim_.now();
  if (delivery_handler_) delivery_handler_(frame);
  return true;
}

void MacProtocol::on_frame_received(const Frame& frame, const RxInfo& raw_info) {
  // Clock skew (or any timestamp corruption) can make the measured delay
  // negative or larger than the physical maximum; a robust MAC clamps the
  // reading to its physical range before trusting it anywhere.
  RxInfo info = raw_info;
  info.measured_delay = std::clamp(info.measured_delay, Duration::zero(), config_.tau_max);

  // §4.3: every packet carries its sending timestamp; refresh the one-hop
  // delay for the sender regardless of destination.
  neighbors_.update(frame.src, info.measured_delay, sim_.now());
  // Proof of life: any decodable frame from a node clears its silence
  // count and any standing death sentence.
  if (config_.dead_neighbor_threshold > 0) {
    const auto it = peer_health_.find(frame.src);
    if (it != peer_health_.end()) it->second = PeerHealth{};
  }
  if (trace_ != nullptr) {
    TraceEvent event{};
    event.kind = TraceEventKind::kNeighborUpdate;
    event.frame_type = frame.type;
    event.src = frame.src;
    event.dst = frame.dst;
    event.seq = frame.seq;
    event.a = info.measured_delay.count_ns();
    trace_mac(event);
  }
  // Route-ad ingestion rides on the same reception and delay the table
  // just stored.
  if (observe_hook_) observe_hook_(frame, info.measured_delay);
  // Frames shipping neighbor info (CS-MAC negotiation packets) feed the
  // two-hop table of everyone who hears them.
  if (frame.neighbor_info) {
    for (const NeighborInfo& entry : *frame.neighbor_info) {
      if (entry.id != id()) {
        neighbors_.update_two_hop(frame.src, entry.id, entry.delay, sim_.now());
      }
    }
  }
  counters_.count_received(frame);
  AQUAMAC_LOG(log_, LogLevel::kDebug) << "rx " << frame.to_string();
  handle_frame(frame, info);
}

void MacProtocol::on_rx_failure(const Frame& frame, RxOutcome outcome, const RxInfo& info) {
  counters_.rx_collisions += 1;
  handle_rx_failure(frame, outcome, info);
}

void MacProtocol::on_tx_done(const Frame& frame) { handle_tx_done(frame); }

void MacProtocol::Packet::visit_state(StateArchive& ar) {
  ar(id, dst, bits, enqueued, retries, e2e.origin, e2e.final_dst, e2e.hop_count, e2e.e2e_id,
     e2e.created_at);
}

void MacProtocol::PeerHealth::visit_state(StateArchive& ar) { ar(silent_failures, dead); }

void MacProtocol::visit_state(StateArchive& ar) {
  ar.section("mac-base", [this](StateArchive& a) {
    a(rng_, queue_, next_packet_id_, delivered_seq_high_, peer_health_, health_generation_,
      counters_);
  });
}

void MacProtocol::trace_mac(TraceEvent event) const {
  if (trace_ == nullptr) return;
  event.at = sim_.now();
  event.node = id();
  trace_->record(event);
}

void MacProtocol::trace_state(int from, int to) const {
  if (trace_ == nullptr) return;
  TraceEvent event{};
  event.kind = TraceEventKind::kMacState;
  event.a = from;
  event.b = to;
  trace_mac(event);
}

}  // namespace aquamac
