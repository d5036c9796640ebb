#include "mac/aloha/slotted_aloha.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void SlottedAloha::visit_state(StateArchive& ar) {
  SlottedMac::visit_state(ar);
  ar.section("s-aloha", [this](StateArchive& a) {
    a(awaiting_ack_, awaited_packet_);
    a.handle(attempt_event_);
    a.handle(timeout_event_);
  });
}

void SlottedAloha::start() {}

void SlottedAloha::handle_packet_enqueued() {
  if (!awaiting_ack_) schedule_attempt(0);
}

void SlottedAloha::schedule_attempt(std::int64_t extra_slots) {
  if (!attempt_event_.is_null()) return;  // one pending attempt at a time
  const Time when = next_slot_boundary(sim_.now()) + slot_length() * extra_slots;
  attempt_event_ = sim_.at(when, [this] {
    attempt_event_ = EventHandle{};
    attempt();
  });
}

void SlottedAloha::attempt() {
  const Packet* packet = head();
  if (packet == nullptr || awaiting_ack_) return;
  if (modem_.transmitting()) {
    schedule_attempt(1);
    return;
  }

  Frame data = make_data_for(FrameType::kData, *packet);
  if (packet->retries > 0) {
    counters_.retransmitted_frames += 1;
    counters_.retransmitted_bits += data.size_bits;
  }
  counters_.handshake_attempts += 1;
  transmit(data);

  awaiting_ack_ = true;
  awaited_packet_ = packet->id;
  // Ack is expected at the Eq.-5 slot; allow one extra slot of slack.
  const std::int64_t occupancy = data_slots(data_airtime(packet->bits), config_.tau_max);
  const Time deadline = next_slot_boundary(sim_.now()) + slot_length() * (occupancy + 2);
  const std::uint64_t packet_id = packet->id;
  timeout_event_ = sim_.at(deadline, [this, packet_id] {
    timeout_event_ = EventHandle{};
    on_ack_timeout(packet_id);
  });
}

void SlottedAloha::on_ack_timeout(std::uint64_t packet_id) {
  if (!awaiting_ack_ || awaited_packet_ != packet_id) return;
  awaiting_ack_ = false;
  Packet* packet = head_mutable();
  if (packet == nullptr || packet->id != packet_id) return;
  packet->retries += 1;
  if (packet->retries > config_.max_retries) {
    drop_head_packet();
    if (head() != nullptr) schedule_attempt(0);
    return;
  }
  schedule_attempt(backoff_slots(packet->retries));
}

void SlottedAloha::handle_frame(const Frame& frame, const RxInfo&) {
  if (frame.dst != id()) return;

  switch (frame.type) {
    case FrameType::kData: {
      deliver_data(frame);
      Frame ack = make_control(FrameType::kAck, frame.src);
      ack.seq = frame.seq;
      const Time when = next_slot_boundary(sim_.now());
      sim_.at(when, [this, ack] {
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
        if (head() != nullptr) schedule_attempt(0);
      }
      break;
    }
    default:
      break;
  }
}

void SlottedAloha::handle_tx_done(const Frame&) {}

}  // namespace aquamac
