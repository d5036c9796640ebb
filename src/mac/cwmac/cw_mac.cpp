#include "mac/cwmac/cw_mac.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void CwMac::visit_state(StateArchive& ar) {
  SlottedMac::visit_state(ar);
  ar.section("cw-mac", [this](StateArchive& a) {
    a(counter_, awaiting_ack_, awaited_packet_);
    a.handle(tick_event_);
    a.handle(timeout_event_);
  });
}

void CwMac::start() {}

void CwMac::handle_packet_enqueued() {
  if (!awaiting_ack_ && counter_ < 0) arm_countdown();
}

void CwMac::arm_countdown() {
  const Packet* packet = head();
  if (packet == nullptr) return;
  const std::uint64_t cw =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(config_.cw_min_slots)
                                  << packet->retries,
                              config_.cw_max_slots);
  counter_ = static_cast<std::int64_t>(rng_.below(cw + 1));
  if (tick_event_.is_null()) {
    tick_event_ = sim_.at(next_slot_boundary(sim_.now()), [this] {
      tick_event_ = EventHandle{};
      on_slot_boundary();
    });
  }
}

void CwMac::on_slot_boundary() {
  if (counter_ < 0 || awaiting_ack_) return;
  if (!quiet_now() && !modem_.transmitting()) {
    if (counter_ == 0) {
      fire();
      return;
    }
    --counter_;
  }
  tick_event_ = sim_.at(sim_.now() + slot_length(), [this] {
    tick_event_ = EventHandle{};
    on_slot_boundary();
  });
}

void CwMac::fire() {
  const Packet* packet = head();
  if (packet == nullptr) {
    counter_ = -1;
    return;
  }
  Frame data = make_data_for(FrameType::kData, *packet);
  if (packet->retries > 0) {
    counters_.retransmitted_frames += 1;
    counters_.retransmitted_bits += data.size_bits;
  }
  counters_.handshake_attempts += 1;
  transmit(data);
  counter_ = -1;
  awaiting_ack_ = true;
  awaited_packet_ = packet->id;

  const std::int64_t occupancy = data_slots(data_airtime(packet->bits), config_.tau_max);
  const Time deadline = next_slot_boundary(sim_.now()) + slot_length() * (occupancy + 2);
  const std::uint64_t packet_id = packet->id;
  timeout_event_ = sim_.at(deadline, [this, packet_id] {
    timeout_event_ = EventHandle{};
    on_ack_timeout(packet_id);
  });
}

void CwMac::on_ack_timeout(std::uint64_t packet_id) {
  if (!awaiting_ack_ || awaited_packet_ != packet_id) return;
  awaiting_ack_ = false;
  Packet* packet = head_mutable();
  if (packet == nullptr || packet->id != packet_id) return;
  packet->retries += 1;
  if (packet->retries > config_.max_retries) {
    drop_head_packet();
  }
  if (head() != nullptr) arm_countdown();
}

void CwMac::handle_frame(const Frame& frame, const RxInfo& info) {
  if (frame.dst != id()) {
    // Defer while the overheard transfer (and its Ack) completes.
    if (frame.type == FrameType::kData) {
      const Duration tail = config_.tau_max + omega() + config_.tau_max;
      set_quiet_until(info.arrival_end + tail);
    } else {
      set_quiet_until(info.arrival_end + config_.tau_max);
    }
    return;
  }

  switch (frame.type) {
    case FrameType::kData: {
      deliver_data(frame);
      Frame ack = make_control(FrameType::kAck, frame.src);
      ack.seq = frame.seq;
      sim_.at(next_slot_boundary(sim_.now()), [this, ack] {
        if (!modem_.transmitting()) transmit(ack);
      });
      break;
    }
    case FrameType::kAck: {
      if (awaiting_ack_ && frame.seq == awaited_packet_) {
        awaiting_ack_ = false;
        sim_.cancel(timeout_event_);
        timeout_event_ = EventHandle{};
        counters_.handshake_successes += 1;
        const Packet* packet = head();
        if (packet != nullptr && packet->id == frame.seq && packet->dst == frame.src) {
          complete_head_packet(/*via_extra=*/false);
        }
        if (head() != nullptr) arm_countdown();
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace aquamac
