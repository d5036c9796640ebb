#include "mac/macau/maca_u.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void MacaU::visit_state(StateArchive& ar) {
  SlottedMac::visit_state(ar);
  ar.section("maca-u", [this](StateArchive& a) {
    a.as<std::uint32_t>(state_);
    a.handle(attempt_event_);
    a.handle(timeout_event_);
    a(expected_data_from_, expected_seq_);
  });
}

void MacaU::set_state(State next) {
  if (next != state_) trace_state(static_cast<int>(state_), static_cast<int>(next));
  state_ = next;
}

void MacaU::handle_packet_enqueued() {
  if (state_ == State::kIdle) {
    schedule_attempt(Duration::from_seconds(rng_.uniform(0.0, 0.1)));
  }
}

void MacaU::handle_reset() {
  sim_.cancel(attempt_event_);
  attempt_event_ = EventHandle{};
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  expected_data_from_ = kNoNode;
  set_state(State::kIdle);
  if (head() != nullptr) schedule_attempt(config_.guard);
}

void MacaU::schedule_attempt(Duration delay) {
  if (!attempt_event_.is_null()) return;
  attempt_event_ = sim_.in(delay, [this] {
    attempt_event_ = EventHandle{};
    attempt_rts();
  });
}

void MacaU::attempt_rts() {
  const Packet* packet = head();
  if (packet == nullptr || state_ != State::kIdle) return;
  if (quiet_now() || modem_.transmitting()) {
    const Duration wait = std::max(quiet_until() - sim_.now(), omega()) + config_.guard;
    schedule_attempt(wait + Duration::from_seconds(rng_.uniform(0.0, 0.2)));
    return;
  }

  Frame rts = make_control(FrameType::kRts, packet->dst);
  rts.seq = packet->id;
  rts.data_duration = data_airtime(packet->bits);
  if (const auto delay = neighbors_.delay_to(packet->dst)) rts.pair_delay = *delay;
  transmit_attempt(rts);
  set_state(State::kWaitCts);

  // CTS deadline: one worst-case round trip plus both airtimes.
  const Time deadline = sim_.now() + 2 * config_.tau_max + 2 * omega() + 4 * config_.guard;
  timeout_event_ = sim_.at(deadline, [this] {
    timeout_event_ = EventHandle{};
    if (state_ == State::kWaitCts) {
      counters_.contention_losses += 1;
      if (trace_ != nullptr) {
        TraceEvent ev{};
        ev.kind = TraceEventKind::kContentionLoss;
        if (const Packet* p = head()) {
          ev.dst = p->dst;
          ev.seq = p->id;
        }
        trace_mac(ev);
      }
      fail_and_backoff();
    }
  });
}

void MacaU::fail_and_backoff() {
  set_state(State::kIdle);
  if (head() == nullptr) return;
  if (retry_or_drop_head()) {
    if (head() != nullptr) schedule_attempt(config_.guard);
    return;
  }
  const double window_s =
      static_cast<double>(backoff_slots(head()->retries)) * config_.tau_max.to_seconds();
  schedule_attempt(Duration::from_seconds(rng_.uniform(0.0, window_s)));
}

void MacaU::handle_frame(const Frame& frame, const RxInfo& info) {
  if (frame.dst != id()) {
    overhear(frame, info);
    return;
  }

  switch (frame.type) {
    case FrameType::kRts: {
      if (state_ != State::kIdle || quiet_now() || modem_.transmitting()) break;
      if (trace_ != nullptr) {
        // Unslotted: the first decodable RTS wins the receiver outright.
        TraceEvent win{};
        win.kind = TraceEventKind::kContentionWin;
        win.src = frame.src;
        win.dst = id();
        win.seq = frame.seq;
        trace_mac(win);
      }
      Frame cts = make_control(FrameType::kCts, frame.src);
      cts.seq = frame.seq;
      cts.data_duration = frame.data_duration;
      cts.pair_delay = info.measured_delay;
      transmit(cts);
      set_state(State::kWaitData);
      expected_data_from_ = frame.src;
      expected_seq_ = frame.seq;
      const Time deadline = sim_.now() + 2 * config_.tau_max + frame.data_duration +
                            2 * omega() + 4 * config_.guard;
      timeout_event_ = sim_.at(deadline, [this] {
        timeout_event_ = EventHandle{};
        if (state_ == State::kWaitData) {
          set_state(State::kIdle);
          expected_data_from_ = kNoNode;
          if (head() != nullptr) schedule_attempt(config_.guard);
        }
      });
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
      set_state(State::kWaitAck);
      if (modem_.transmitting()) {
        fail_and_backoff();
        break;
      }
      Frame data = make_data_for(FrameType::kData, *packet);
      data.pair_delay = info.measured_delay;
      transmit(data);
      const Time deadline = sim_.now() + data_airtime(packet->bits) + 2 * config_.tau_max +
                            omega() + 4 * config_.guard;
      timeout_event_ = sim_.at(deadline, [this] {
        timeout_event_ = EventHandle{};
        if (state_ == State::kWaitAck) fail_and_backoff();
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
      set_state(State::kIdle);
      expected_data_from_ = kNoNode;
      if (!modem_.transmitting()) {
        Frame ack = make_control(FrameType::kAck, frame.src);
        ack.seq = frame.seq;
        transmit(ack);
      }
      if (head() != nullptr) schedule_attempt(config_.guard);
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
      set_state(State::kIdle);
      if (head() != nullptr) schedule_attempt(config_.guard);
      break;
    }
    default:
      break;
  }
}

void MacaU::overhear(const Frame& frame, const RxInfo& info) {
  switch (frame.type) {
    case FrameType::kRts:
      // Enough for the CTS to clear the neighborhood.
      set_quiet_until(info.arrival_end + 2 * config_.tau_max + omega());
      break;
    case FrameType::kCts:
      // The data and its ack follow.
      set_quiet_until(info.arrival_end + 2 * config_.tau_max + frame.data_duration + omega());
      break;
    case FrameType::kData:
      set_quiet_until(info.arrival_end + 2 * config_.tau_max + omega());
      break;
    default:
      break;
  }
}

}  // namespace aquamac
