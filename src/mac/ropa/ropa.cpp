#include "mac/ropa/ropa.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void Ropa::Appender::visit_state(StateArchive& ar) { ar(id, seq, data_duration); }

void Ropa::visit_state(StateArchive& ar) {
  visit_handshake(ar, [this](StateArchive& a) { a(appenders_); });
}

void Ropa::decorate_negotiation(Frame& frame) {
  if (frame.type == FrameType::kRts) appenders_.clear();
}

// ---------------------------------------------------------------------
// Appender side (A): ride the sender's RTS->CTS wait with an RTA
// ---------------------------------------------------------------------

void Ropa::maybe_send_rta(const Frame& rts, const RxInfo& info) {
  const Packet* packet = head();
  if (state() != State::kIdle || packet == nullptr) return;
  if (packet->dst != rts.src) return;        // our packet must target the sender
  if (rts.pair_delay.is_zero()) return;      // sender's wait length unknown

  // S idles from the end of its RTS until the CTS arrives: the RTA must
  // land entirely inside that window.
  const std::int64_t t = slot_index(info.arrival_begin);
  const Duration tau_as = info.measured_delay;
  const Time window_open = slot_start(t) + omega() + config_.guard;
  const Time window_close = slot_start(t + 1) + rts.pair_delay - config_.guard;
  Time lo = std::max(sim_.now() + config_.guard, window_open - tau_as);
  const Time hi = window_close - omega() - tau_as;
  if (hi <= lo) return;

  // Randomize the launch inside the feasible range so concurrent
  // appenders do not systematically collide at S.
  const double span = (hi - lo).to_seconds();
  const Time launch = lo + Duration::from_seconds(rng_.uniform01() * span);

  counters_.extra_attempts += 1;
  set_state(kWaitGrant);
  const std::uint64_t seq = packet->id;
  const NodeId s = rts.src;
  const Duration my_dur = data_airtime(packet->bits);
  sim_.at(launch, [this, seq, s, my_dur] {
    if (state() != kWaitGrant) return;
    if (modem_.transmitting()) {
      return_to_idle();
      return;
    }
    Frame rta = make_control(FrameType::kRta, s);
    rta.seq = seq;
    rta.data_duration = my_dur;
    transmit(rta);
  });

  // The grant comes after S's whole exchange; allow it that long.
  const std::int64_t occupancy = data_slots(rts.data_duration, config_.tau_max);
  const Time deadline = slot_start(t + 3 + occupancy) + slot_length() * 3;
  timeout_event_ = sim_.at(deadline, [this] {
    timeout_event_ = EventHandle{};
    if (state() == kWaitGrant) {
      return_to_idle();
    }
  });
}

void Ropa::on_grant(const Frame& frame) {
  const Packet* packet = head();
  if (state() != kWaitGrant || packet == nullptr || frame.seq != packet->id) return;
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  set_state(kAppendData);

  const Packet packet_copy = *packet;
  const std::uint32_t bits = packet->bits;
  sim_.at(next_slot_boundary(sim_.now()), [this, packet_copy, bits] {
    if (state() != kAppendData || modem_.transmitting()) return;
    transmit(make_data_for(FrameType::kExData, packet_copy));
    const Time deadline = sim_.now() + data_airtime(bits) + config_.tau_max +
                          config_.tau_max + omega() + slot_length();
    timeout_event_ = sim_.at(deadline, [this] {
      timeout_event_ = EventHandle{};
      if (state() == kAppendData) {
        return_to_idle();
      }
    });
  });
}

// ---------------------------------------------------------------------
// Initiator side (S): drain the recorded appender list after our exchange
// ---------------------------------------------------------------------

void Ropa::handshake_completed() {
  if (appenders_.empty()) {
    return_to_idle();
    return;
  }
  set_state(kGranting);
  grant_next();
}

void Ropa::grant_next() {
  if (appenders_.empty()) {
    return_to_idle();
    return;
  }
  const Appender appender = appenders_.front();
  appenders_.erase(appenders_.begin());

  expected_data_from_ = appender.id;
  expected_seq_ = appender.seq;

  sim_.at(next_slot_boundary(sim_.now()), [this, appender] {
    if (state() != kGranting || modem_.transmitting()) {
      grant_next();
      return;
    }
    Frame grant = make_control(FrameType::kExc, appender.id);
    grant.seq = appender.seq;
    grant.data_duration = appender.data_duration;
    transmit(grant);
    const std::int64_t occupancy = data_slots(appender.data_duration, config_.tau_max);
    const Time deadline = slot_start(slot_index(sim_.now()) + 1 + occupancy + 2);
    timeout_event_ = sim_.at(deadline, [this] {
      timeout_event_ = EventHandle{};
      if (state() == kGranting && expected_data_from_ != kNoNode) {
        expected_data_from_ = kNoNode;
        grant_next();
      }
    });
  });
}

// ---------------------------------------------------------------------
// Frame dispatch
// ---------------------------------------------------------------------

void Ropa::handle_extra_frame(const Frame& frame, const RxInfo&) {
  switch (frame.type) {
    case FrameType::kRta: {
      if ((state() == State::kWaitCts || state() == State::kWaitAck) &&
          appenders_.size() < kMaxAppenders) {
        appenders_.push_back(Appender{frame.src, frame.seq, frame.data_duration});
      }
      break;
    }
    case FrameType::kExData: {
      // Appended data arriving at the grant-phase initiator.
      if (state() != kGranting || frame.src != expected_data_from_ ||
          frame.seq != expected_seq_) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      deliver_data(frame);
      expected_data_from_ = kNoNode;
      // (the appender counts the extra success when its ExAck arrives)
      if (!modem_.transmitting()) {
        Frame ack = make_control(FrameType::kExAck, frame.src);
        ack.seq = frame.seq;
        transmit(ack);
      }
      grant_next();
      break;
    }
    case FrameType::kExc: {
      on_grant(frame);
      break;
    }
    case FrameType::kExAck: {
      const Packet* packet = head();
      if (state() != kAppendData || packet == nullptr || frame.src != packet->dst ||
          frame.seq != packet->id) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      complete_head_packet(/*via_extra=*/true);
      return_to_idle();
      break;
    }
    default:
      break;
  }
}

void Ropa::overheard(const Frame& frame, const RxInfo& info) {
  keep_quiet_for(frame, info, config_.tau_max);
  const std::int64_t heard_slot = slot_index(info.arrival_begin);
  switch (frame.type) {
    case FrameType::kRts:
      maybe_send_rta(frame, info);
      break;
    case FrameType::kExc: {
      // Someone else's append train: its data + ack follow.
      const std::int64_t occupancy = data_slots(frame.data_duration, config_.tau_max);
      set_quiet_until(slot_start(heard_slot + 2 + occupancy));
      break;
    }
    case FrameType::kExData:
      set_quiet_until(info.arrival_end + slot_length());
      break;
    default:
      break;
  }
}

}  // namespace aquamac
