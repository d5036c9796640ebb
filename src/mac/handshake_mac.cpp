#include "mac/handshake_mac.hpp"

#include <algorithm>

#include "sim/checkpoint.hpp"

namespace aquamac {

void HandshakeMac::Candidate::visit_state(StateArchive& ar) {
  ar(src, seq, data_duration, delay_to_src, rp);
}

void HandshakeMac::visit_state(StateArchive& ar) {
  visit_handshake(ar, [](StateArchive&) {});
}

void HandshakeMac::visit_handshake(StateArchive& ar,
                                   const std::function<void(StateArchive&)>& own) {
  visit_protocol(ar, [&](StateArchive& a) {
    a.as<std::uint32_t>(state_);
    a.handle(attempt_event_);
    a.handle(timeout_event_);
    a.handle(decide_event_);
    a(candidates_, expected_data_from_, expected_seq_);
    own(a);
  });
}

void HandshakeMac::return_to_idle() {
  set_state(State::kIdle);
  if (head() != nullptr) schedule_attempt(0);
}

void HandshakeMac::set_state(State next) {
  if (next != state_) trace_state(static_cast<int>(state_), static_cast<int>(next));
  state_ = next;
}

void HandshakeMac::handle_reset() {
  sim_.cancel(attempt_event_);
  attempt_event_ = EventHandle{};
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  sim_.cancel(decide_event_);
  decide_event_ = EventHandle{};
  candidates_.clear();
  expected_data_from_ = kNoNode;
  return_to_idle();
}

void HandshakeMac::handle_frame(const Frame& frame, const RxInfo& info) {
  if (frame.dst != id()) {
    overheard(frame, info);
    const Packet* packet = head();
    if ((frame.type == FrameType::kRts || frame.type == FrameType::kCts) &&
        state_ == State::kWaitCts && packet != nullptr && frame.src == packet->dst) {
      contention_lost(frame, info);
    }
    return;
  }
  switch (frame.type) {
    case FrameType::kRts:
      on_rts(frame, info);
      break;
    case FrameType::kCts:
      on_cts(frame, info);
      break;
    case FrameType::kData:
      on_data(frame);
      break;
    case FrameType::kAck:
      on_ack(frame);
      break;
    default:
      handle_extra_frame(frame, info);
      break;
  }
}

// ---------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------

void HandshakeMac::handle_packet_enqueued() {
  if (state_ == State::kIdle) schedule_attempt(0);
}

void HandshakeMac::schedule_attempt(std::int64_t extra_slots) {
  if (!attempt_event_.is_null()) return;
  arm_attempt(next_slot_boundary(sim_.now()) + slot_length() * extra_slots);
}

void HandshakeMac::arm_attempt(Time when) {
  attempt_event_ = sim_.at(when, [this] {
    attempt_event_ = EventHandle{};
    attempt_rts();
  });
}

void HandshakeMac::attempt_rts() {
  const Packet* packet = head();
  if (packet == nullptr || state_ != State::kIdle) return;
  if (quiet_now() || modem_.transmitting() || !candidates_.empty() || negotiation_blocked()) {
    // Deferred: retry at the first boundary after the quiet period.
    arm_attempt(next_slot_boundary(std::max(quiet_until(), sim_.now() + slot_length())));
    return;
  }

  Frame rts = make_control(FrameType::kRts, packet->dst);
  rts.seq = packet->id;
  rts.data_duration = data_airtime(packet->bits);
  if (const auto delay = neighbors_.delay_to(packet->dst)) rts.pair_delay = *delay;
  decorate_negotiation(rts);
  if (trace_ != nullptr) {
    TraceEvent ev{};
    ev.kind = TraceEventKind::kSlotBoundary;
    ev.frame_type = FrameType::kRts;
    ev.a = slot_index(sim_.now());
    trace_mac(ev);
  }
  transmit_attempt(rts);
  set_state(State::kWaitCts);

  // CTS is sent at slot t+1 and arrives within it; give one slot slack.
  timeout_event_ = sim_.at(slot_start(slot_index(sim_.now()) + 3), [this] {
    timeout_event_ = EventHandle{};
    if (state_ != State::kWaitCts) return;
    record_contention_loss();
    cts_timed_out();
    fail_and_backoff();
  });
}

void HandshakeMac::record_contention_loss(const Frame* negotiation) {
  counters_.contention_losses += 1;
  if (trace_ == nullptr) return;
  TraceEvent ev{};
  ev.kind = TraceEventKind::kContentionLoss;
  if (negotiation != nullptr) {
    ev.frame_type = negotiation->type;
    ev.src = negotiation->src;
  }
  if (const Packet* p = head()) {
    ev.dst = p->dst;
    ev.seq = p->id;
  }
  trace_mac(ev);
}

void HandshakeMac::fail_and_backoff() {
  set_state(State::kIdle);
  backed_off();
  if (head() == nullptr) return;
  if (retry_or_drop_head()) {
    if (head() != nullptr) schedule_attempt(0);
    return;
  }
  schedule_attempt(backoff_slots(head()->retries));
}

void HandshakeMac::on_cts(const Frame& frame, const RxInfo& info) {
  const Packet* packet = head();
  if (state_ != State::kWaitCts || packet == nullptr || frame.src != packet->dst ||
      frame.seq != packet->id) {
    return;
  }
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  set_state(State::kWaitAck);

  const Duration tau_sr = info.measured_delay;
  const Packet packet_copy = *packet;
  sim_.at(next_slot_boundary(sim_.now()), [this, packet_copy, tau_sr] {
    if (state_ != State::kWaitAck) return;
    if (modem_.transmitting()) {
      // Rare (e.g. an extra packet still radiating at the boundary), but
      // abandoning beats wedging in WaitAck with no timeout.
      fail_and_backoff();
      return;
    }
    Frame data = make_data_for(FrameType::kData, packet_copy);
    data.pair_delay = tau_sr;
    transmit(data);
    // Eq. (5): Ack slot = data slot + ceil((TD + tau) / |ts|).
    const std::int64_t ack_slot =
        slot_index(sim_.now()) + data_slots(data_airtime(packet_copy.bits), tau_sr);
    timeout_event_ = sim_.at(slot_start(ack_slot + 3), [this] {
      timeout_event_ = EventHandle{};
      if (state_ == State::kWaitAck) fail_and_backoff();
    });
  });
}

void HandshakeMac::on_ack(const Frame& frame) {
  const Packet* packet = head();
  if (state_ != State::kWaitAck || packet == nullptr || frame.src != packet->dst ||
      frame.seq != packet->id) {
    return;
  }
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  counters_.handshake_successes += 1;
  complete_head_packet(/*via_extra=*/false);
  handshake_completed();
}

// ---------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------

void HandshakeMac::on_rts(const Frame& frame, const RxInfo& info) {
  // "Checking Scheduling" (Fig. 3): refuse when busy, quiet or blocked.
  if (state_ != State::kIdle || quiet_now() || negotiation_blocked()) return;
  if (candidates_.empty()) {
    decide_event_ = sim_.at(next_slot_boundary(sim_.now()), [this] {
      decide_event_ = EventHandle{};
      decide_cts();
    });
  }
  candidates_.push_back(Candidate{frame.src, frame.seq, frame.data_duration,
                                  info.measured_delay, frame.priority_rp});
}

void HandshakeMac::decide_cts() {
  if (candidates_.empty()) return;
  const Candidate winner = contention_winner(candidates_);
  candidates_.clear();
  if (state_ != State::kIdle || quiet_now() || modem_.transmitting() || negotiation_blocked()) {
    return;
  }

  if (trace_ != nullptr) {
    TraceEvent boundary{};
    boundary.kind = TraceEventKind::kSlotBoundary;
    boundary.frame_type = FrameType::kCts;
    boundary.a = slot_index(sim_.now());
    trace_mac(boundary);
    TraceEvent win{};
    win.kind = TraceEventKind::kContentionWin;
    win.src = winner.src;
    win.dst = id();
    win.seq = winner.seq;
    win.value = winner.rp;
    trace_mac(win);
  }
  Frame cts = make_control(FrameType::kCts, winner.src);
  cts.seq = winner.seq;
  cts.data_duration = winner.data_duration;
  cts.pair_delay = winner.delay_to_src;
  decorate_negotiation(cts);
  transmit(cts);
  set_state(State::kWaitData);
  expected_data_from_ = winner.src;
  expected_seq_ = winner.seq;
  cts_sent(winner);

  // DATA is sent in the next slot and takes data_slots to arrive in full.
  const std::int64_t occupancy = data_slots(winner.data_duration, winner.delay_to_src);
  timeout_event_ = sim_.at(slot_start(slot_index(sim_.now()) + 1 + occupancy + 2), [this] {
    timeout_event_ = EventHandle{};
    if (state_ == State::kWaitData) {
      expected_data_from_ = kNoNode;
      return_to_idle();
    }
  });
}

void HandshakeMac::on_data(const Frame& frame) {
  if (state_ != State::kWaitData || frame.src != expected_data_from_ ||
      frame.seq != expected_seq_) {
    return;
  }
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  deliver_data(frame);
  set_state(State::kIdle);
  expected_data_from_ = kNoNode;

  // Eq. (5): the reception just ended, so the next boundary *is* the
  // ts(Data) + ceil((TD + tau)/|ts|) slot.
  Frame ack = make_control(FrameType::kAck, frame.src);
  ack.seq = frame.seq;
  sim_.at(next_slot_boundary(sim_.now()), [this, ack] {
    if (!modem_.transmitting()) transmit(ack);
  });
  // The receiver's own next attempt waits out the Ack's slot.
  if (head() != nullptr) schedule_attempt(1);
}

// ---------------------------------------------------------------------
// Overhearing
// ---------------------------------------------------------------------

void HandshakeMac::keep_quiet_for(const Frame& frame, const RxInfo& info, Duration tau_pair) {
  const std::int64_t heard_slot = slot_index(info.arrival_begin);
  switch (frame.type) {
    case FrameType::kRts:
      set_quiet_until(slot_start(heard_slot + 3 + data_slots(frame.data_duration, tau_pair)));
      break;
    case FrameType::kCts:
      set_quiet_until(slot_start(heard_slot + 2 + data_slots(frame.data_duration, tau_pair)));
      break;
    case FrameType::kData:
      // Remain quiet through the Ack that follows the data.
      set_quiet_until(info.arrival_end + slot_length() + slot_length());
      break;
    default:
      break;
  }
}

}  // namespace aquamac
