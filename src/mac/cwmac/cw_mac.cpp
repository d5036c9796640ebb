#include "mac/cwmac/cw_mac.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void CwMac::visit_state(StateArchive& ar) {
  visit_acked(ar, [this](StateArchive& a) {
    a(counter_);
    a.handle(tick_event_);
  });
}

void CwMac::handle_packet_enqueued() {
  if (!awaiting_ack() && counter_ < 0) arm_countdown();
}

void CwMac::contend(bool /*retry*/) { arm_countdown(); }

void CwMac::handle_reset() {
  sim_.cancel(tick_event_);
  tick_event_ = EventHandle{};
  counter_ = -1;
  AckedDataMac::handle_reset();
}

void CwMac::arm_countdown() {
  const Packet* packet = head();
  if (packet == nullptr) return;
  // Uniform in [0, cw], unlike backoff_slots' [1, cw].
  counter_ = static_cast<std::int64_t>(rng_.below(contention_window(packet->retries) + 1));
  if (tick_event_.is_null()) {
    tick_event_ = sim_.at(next_slot_boundary(sim_.now()), [this] {
      tick_event_ = EventHandle{};
      on_slot_boundary();
    });
  }
}

void CwMac::on_slot_boundary() {
  if (counter_ < 0 || awaiting_ack()) return;
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
  if (head() != nullptr) send_head();
  counter_ = -1;
}

void CwMac::overheard(const Frame& frame, const RxInfo& info) {
  // Defer while the overheard transfer (and its Ack) completes.
  if (frame.type == FrameType::kData) {
    const Duration tail = config_.tau_max + omega() + config_.tau_max;
    set_quiet_until(info.arrival_end + tail);
  } else {
    set_quiet_until(info.arrival_end + config_.tau_max);
  }
}

}  // namespace aquamac
