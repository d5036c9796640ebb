#include "mac/aloha/slotted_aloha.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void SlottedAloha::visit_state(StateArchive& ar) {
  visit_acked(ar, [this](StateArchive& a) { a.handle(attempt_event_); });
}

void SlottedAloha::handle_packet_enqueued() {
  if (!awaiting_ack()) schedule_attempt(0);
}

void SlottedAloha::contend(bool retry) {
  schedule_attempt(retry ? backoff_slots(head()->retries) : 0);
}

void SlottedAloha::handle_reset() {
  sim_.cancel(attempt_event_);
  attempt_event_ = EventHandle{};
  AckedDataMac::handle_reset();
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
  if (head() == nullptr || awaiting_ack()) return;
  if (modem_.transmitting()) {
    schedule_attempt(1);
    return;
  }
  send_head();
}

}  // namespace aquamac
