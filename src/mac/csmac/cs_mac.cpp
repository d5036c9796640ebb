#include "mac/csmac/cs_mac.hpp"

#include <memory>

#include "sim/checkpoint.hpp"

namespace aquamac {

void CsMac::PendingRts::visit_state(StateArchive& ar) {
  ar(src, seq, data_duration, delay_to_src);
}

void CsMac::visit_state(StateArchive& ar) {
  SlottedMac::visit_state(ar);
  ar.section("cs-mac", [this](StateArchive& a) {
    a.as<std::uint32_t>(state_);
    a.handle(attempt_event_);
    a.handle(timeout_event_);
    a.handle(decide_event_);
    a(pending_rts_, expected_data_from_, expected_seq_);
  });
}

void CsMac::start() {}

void CsMac::handle_packet_enqueued() {
  if (state_ == State::kIdle) schedule_attempt(0);
}

// ---------------------------------------------------------------------
// Negotiated four-way path
// ---------------------------------------------------------------------

void CsMac::schedule_attempt(std::int64_t extra_slots) {
  if (!attempt_event_.is_null()) return;
  const Time when = next_slot_boundary(sim_.now()) + slot_length() * extra_slots;
  attempt_event_ = sim_.at(when, [this] {
    attempt_event_ = EventHandle{};
    attempt_rts();
  });
}

void CsMac::attempt_rts() {
  const Packet* packet = head();
  if (packet == nullptr || state_ != State::kIdle) return;
  if (quiet_now() || modem_.transmitting() || pending_rts_.has_value()) {
    const Time resume = std::max(quiet_until(), sim_.now() + slot_length());
    attempt_event_ = sim_.at(next_slot_boundary(resume), [this] {
      attempt_event_ = EventHandle{};
      attempt_rts();
    });
    return;
  }

  Frame rts = make_control(FrameType::kRts, packet->dst);
  rts.seq = packet->id;
  rts.data_duration = data_airtime(packet->bits);
  if (const auto delay = neighbors_.delay_to(packet->dst)) rts.pair_delay = *delay;
  attach_neighbor_info(rts);
  if (packet->retries > 0) {
    counters_.retransmitted_frames += 1;
    counters_.retransmitted_bits += rts.size_bits;
  }
  counters_.handshake_attempts += 1;
  transmit(rts);
  state_ = State::kWaitCts;

  const Time deadline = slot_start(slot_index(sim_.now()) + 3);
  timeout_event_ = sim_.at(deadline, [this] {
    timeout_event_ = EventHandle{};
    if (state_ == State::kWaitCts) {
      counters_.contention_losses += 1;
      fail_and_backoff();
    }
  });
}

void CsMac::fail_and_backoff() {
  state_ = State::kIdle;
  Packet* packet = head_mutable();
  if (packet == nullptr) return;
  packet->retries += 1;
  if (packet->retries > config_.max_retries) {
    drop_head_packet();
    if (head() != nullptr) schedule_attempt(0);
    return;
  }
  schedule_attempt(backoff_slots(packet->retries));
}

void CsMac::decide_cts() {
  if (!pending_rts_.has_value()) return;
  const PendingRts rts = *pending_rts_;
  pending_rts_.reset();
  if (state_ != State::kIdle || quiet_now() || modem_.transmitting()) return;

  Frame cts = make_control(FrameType::kCts, rts.src);
  cts.seq = rts.seq;
  cts.data_duration = rts.data_duration;
  cts.pair_delay = rts.delay_to_src;
  attach_neighbor_info(cts);
  transmit(cts);
  state_ = State::kWaitData;
  expected_data_from_ = rts.src;
  expected_seq_ = rts.seq;

  const std::int64_t occupancy = data_slots(rts.data_duration, rts.delay_to_src);
  const Time deadline = slot_start(slot_index(sim_.now()) + 1 + occupancy + 2);
  timeout_event_ = sim_.at(deadline, [this] {
    timeout_event_ = EventHandle{};
    if (state_ == State::kWaitData) {
      state_ = State::kIdle;
      expected_data_from_ = kNoNode;
      if (head() != nullptr) schedule_attempt(0);
    }
  });
}

void CsMac::attach_neighbor_info(Frame& frame) const {
  if (config_.two_hop_entries_shipped == 0 || neighbors_.size() == 0) return;
  auto info = std::make_shared<std::vector<NeighborInfo>>();
  for (const auto& [nid, entry] : neighbors_.entries()) {
    if (info->size() >= config_.two_hop_entries_shipped) break;
    info->push_back(NeighborInfo{nid, entry.delay});
  }
  frame.neighbor_info = std::move(info);
}

// ---------------------------------------------------------------------
// Channel stealing
// ---------------------------------------------------------------------

void CsMac::maybe_steal(const Frame& negotiation, const RxInfo& info) {
  const Packet* packet = head();
  if (state_ != State::kIdle || packet == nullptr) return;
  const NodeId target = packet->dst;
  if (target == negotiation.src || target == negotiation.dst) return;  // pair is busy
  const auto tau_im = neighbors_.delay_to(target);
  if (!tau_im) return;

  const Duration my_dur = data_airtime(packet->bits);
  const Duration tau_pair =
      negotiation.pair_delay.is_zero() ? config_.tau_max : negotiation.pair_delay;

  // The paper's CS-MAC premise: the data airtime must fit inside the
  // pair's propagation gap.
  if (my_dur + config_.guard + config_.guard > tau_pair) return;

  // The paper's CS-MAC rule: "send data packets directly after
  // determining that the packet will arrive at the receiver before the
  // negotiated packet". The negotiated DATA leaves the pair's sender at
  // the next slot boundary; if we know our target's delay from that
  // sender (two-hop state), our arrival must clear the data's arrival at
  // the target. Unknown delays are optimistically ignored, and no other
  // neighbor is consulted — CS-MAC's documented recklessness (§5.1).
  const Time launch = sim_.now() + config_.guard;
  const std::int64_t c = slot_index(info.arrival_begin);
  const Time data_tx = slot_start(c + 1);
  const Time arrival_begin = launch + *tau_im;
  const Time arrival_end = arrival_begin + my_dur;
  const NodeId data_sender = negotiation.dst;
  if (const auto tau_km = neighbors_.two_hop_delay(data_sender, target)) {
    const Time data_at_target = data_tx + *tau_km;
    if (arrival_end + config_.guard > data_at_target) return;
  }

  counters_.extra_attempts += 1;
  state_ = State::kStealing;
  const Packet packet_copy = *packet;
  const std::uint32_t bits = packet->bits;
  sim_.at(launch, [this, packet_copy, bits, target] {
    if (state_ != State::kStealing || modem_.transmitting()) {
      if (state_ == State::kStealing) {
        state_ = State::kIdle;
        if (head() != nullptr) schedule_attempt(0);
      }
      return;
    }
    Frame data = make_data_for(FrameType::kExData, packet_copy);
    (void)target;
    transmit(data);
    const Time deadline = sim_.now() + data_airtime(bits) + config_.tau_max +
                          config_.tau_max + omega() + slot_length();
    timeout_event_ = sim_.at(deadline, [this] {
      timeout_event_ = EventHandle{};
      if (state_ == State::kStealing) {
        // The steal collided somewhere; fall back to normal contention.
        state_ = State::kIdle;
        Packet* head_packet = head_mutable();
        if (head_packet != nullptr) head_packet->retries += 1;
        if (head_packet != nullptr && head_packet->retries > config_.max_retries) {
          drop_head_packet();
        }
        if (head() != nullptr) schedule_attempt(0);
      }
    });
  });
}

// ---------------------------------------------------------------------
// Frame dispatch
// ---------------------------------------------------------------------

void CsMac::handle_frame(const Frame& frame, const RxInfo& info) {
  if (frame.dst != id() && frame.dst != kBroadcast) {
    overhear(frame, info);
    return;
  }

  switch (frame.type) {
    case FrameType::kRts: {
      if (state_ != State::kIdle || quiet_now()) break;
      if (!pending_rts_.has_value()) {
        pending_rts_ = PendingRts{frame.src, frame.seq, frame.data_duration,
                                  info.measured_delay};
        decide_event_ = sim_.at(next_slot_boundary(sim_.now()), [this] {
          decide_event_ = EventHandle{};
          decide_cts();
        });
      }
      break;
    }
    case FrameType::kCts: {
      const Packet* packet = head();
      if (state_ != State::kWaitCts || packet == nullptr || frame.src != packet->dst ||
          frame.seq != packet->id) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      state_ = State::kWaitAck;
      const Duration tau_sr = info.measured_delay;
      const Packet packet_copy = *packet;
      sim_.at(next_slot_boundary(sim_.now()), [this, packet_copy, tau_sr] {
        if (state_ != State::kWaitAck) return;
        if (modem_.transmitting()) {
          // Rare, but abandoning beats wedging in WaitAck with no timeout.
          fail_and_backoff();
          return;
        }
        Frame data = make_data_for(FrameType::kData, packet_copy);
        data.pair_delay = tau_sr;
        transmit(data);
        const std::int64_t ack_slot =
            slot_index(sim_.now()) + data_slots(data_airtime(packet_copy.bits), tau_sr);
        const Time deadline = slot_start(ack_slot + 3);
        timeout_event_ = sim_.at(deadline, [this] {
          timeout_event_ = EventHandle{};
          if (state_ == State::kWaitAck) fail_and_backoff();
        });
      });
      break;
    }
    case FrameType::kData: {
      if (state_ != State::kWaitData || frame.src != expected_data_from_ ||
          frame.seq != expected_seq_) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      deliver_data(frame);
      state_ = State::kIdle;
      expected_data_from_ = kNoNode;
      Frame ack = make_control(FrameType::kAck, frame.src);
      ack.seq = frame.seq;
      sim_.at(next_slot_boundary(sim_.now()), [this, ack] {
        if (!modem_.transmitting()) transmit(ack);
      });
      if (head() != nullptr) schedule_attempt(1);
      break;
    }
    case FrameType::kExData: {
      // A stolen-channel data packet addressed to us: accept whenever we
      // are not mid-exchange; ack immediately in the stolen gap.
      if (state_ != State::kIdle && state_ != State::kWaitCts) break;
      deliver_data(frame);
      if (!modem_.transmitting()) {
        Frame ack = make_control(FrameType::kExAck, frame.src);
        ack.seq = frame.seq;
        transmit(ack);
      }
      break;
    }
    case FrameType::kAck: {
      const Packet* packet = head();
      if (state_ != State::kWaitAck || packet == nullptr || frame.src != packet->dst ||
          frame.seq != packet->id) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      counters_.handshake_successes += 1;
      complete_head_packet(/*via_extra=*/false);
      state_ = State::kIdle;
      if (head() != nullptr) schedule_attempt(0);
      break;
    }
    case FrameType::kExAck: {
      const Packet* packet = head();
      if (state_ != State::kStealing || packet == nullptr || frame.src != packet->dst ||
          frame.seq != packet->id) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      complete_head_packet(/*via_extra=*/true);  // counts the extra success
      state_ = State::kIdle;
      if (head() != nullptr) schedule_attempt(0);
      break;
    }
    default:
      break;
  }
}

void CsMac::overhear(const Frame& frame, const RxInfo& info) {
  const std::int64_t heard_slot = slot_index(info.arrival_begin);
  switch (frame.type) {
    case FrameType::kRts: {
      const std::int64_t occupancy = data_slots(frame.data_duration, config_.tau_max);
      set_quiet_until(slot_start(heard_slot + 3 + occupancy));
      break;
    }
    case FrameType::kCts: {
      const std::int64_t occupancy = data_slots(frame.data_duration, config_.tau_max);
      set_quiet_until(slot_start(heard_slot + 2 + occupancy));
      maybe_steal(frame, info);
      break;
    }
    case FrameType::kData:
      set_quiet_until(info.arrival_end + slot_length() + slot_length());
      break;
    default:
      break;
  }
}

}  // namespace aquamac
