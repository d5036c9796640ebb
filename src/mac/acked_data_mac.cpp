#include "mac/acked_data_mac.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void AckedDataMac::visit_state(StateArchive& ar) {
  visit_acked(ar, [](StateArchive&) {});
}

void AckedDataMac::visit_acked(StateArchive& ar,
                               const std::function<void(StateArchive&)>& own) {
  visit_protocol(ar, [&](StateArchive& a) {
    a(awaiting_ack_, awaited_packet_);
    a.handle(timeout_event_);
    own(a);
  });
}

void AckedDataMac::handle_reset() {
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  awaiting_ack_ = false;
  if (head() != nullptr) contend(/*retry=*/false);
}

void AckedDataMac::send_head() {
  const Packet* packet = head();
  transmit_attempt(make_data_for(FrameType::kData, *packet));
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

void AckedDataMac::on_ack_timeout(std::uint64_t packet_id) {
  if (!awaiting_ack_ || awaited_packet_ != packet_id) return;
  awaiting_ack_ = false;
  if (head() == nullptr || head()->id != packet_id) return;
  const bool dropped = retry_or_drop_head();
  if (head() != nullptr) contend(/*retry=*/!dropped);
}

void AckedDataMac::handle_frame(const Frame& frame, const RxInfo& info) {
  if (frame.dst != id()) {
    overheard(frame, info);
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
    case FrameType::kAck:
      on_ack(frame);
      break;
    default:
      break;
  }
}

void AckedDataMac::on_ack(const Frame& frame) {
  if (!awaiting_ack_ || frame.seq != awaited_packet_) return;
  awaiting_ack_ = false;
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  counters_.handshake_successes += 1;
  const Packet* packet = head();
  if (packet != nullptr && packet->id == frame.seq && packet->dst == frame.src) {
    complete_head_packet(/*via_extra=*/false);
  }
  if (head() != nullptr) contend(/*retry=*/false);
}

}  // namespace aquamac
