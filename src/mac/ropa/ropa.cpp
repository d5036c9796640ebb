#include "mac/ropa/ropa.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void Ropa::PendingRts::visit_state(StateArchive& ar) {
  ar(src, seq, data_duration, delay_to_src);
}

void Ropa::Appender::visit_state(StateArchive& ar) { ar(id, seq, data_duration); }

void Ropa::visit_state(StateArchive& ar) {
  SlottedMac::visit_state(ar);
  ar.section("ropa", [this](StateArchive& a) {
    a.as<std::uint32_t>(state_);
    a.handle(attempt_event_);
    a.handle(timeout_event_);
    a.handle(decide_event_);
    a(pending_rts_, expected_data_from_, expected_seq_, expected_is_append_, appenders_);
  });
}

void Ropa::start() {}

void Ropa::handle_packet_enqueued() {
  if (state_ == State::kIdle) schedule_attempt(0);
}

// ---------------------------------------------------------------------
// Negotiated four-way path
// ---------------------------------------------------------------------

void Ropa::schedule_attempt(std::int64_t extra_slots) {
  if (!attempt_event_.is_null()) return;
  const Time when = next_slot_boundary(sim_.now()) + slot_length() * extra_slots;
  attempt_event_ = sim_.at(when, [this] {
    attempt_event_ = EventHandle{};
    attempt_rts();
  });
}

void Ropa::attempt_rts() {
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

  appenders_.clear();
  Frame rts = make_control(FrameType::kRts, packet->dst);
  rts.seq = packet->id;
  rts.data_duration = data_airtime(packet->bits);
  if (const auto delay = neighbors_.delay_to(packet->dst)) rts.pair_delay = *delay;
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

void Ropa::fail_and_backoff() {
  state_ = State::kIdle;
  appenders_.clear();
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

void Ropa::decide_cts() {
  if (!pending_rts_.has_value()) return;
  const PendingRts rts = *pending_rts_;
  pending_rts_.reset();
  if (state_ != State::kIdle || quiet_now() || modem_.transmitting()) return;

  Frame cts = make_control(FrameType::kCts, rts.src);
  cts.seq = rts.seq;
  cts.data_duration = rts.data_duration;
  cts.pair_delay = rts.delay_to_src;
  transmit(cts);
  state_ = State::kWaitData;
  expected_data_from_ = rts.src;
  expected_seq_ = rts.seq;
  expected_is_append_ = false;

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

void Ropa::send_ack(NodeId dst, std::uint64_t seq, FrameType type) {
  Frame ack = make_control(type, dst);
  ack.seq = seq;
  sim_.at(next_slot_boundary(sim_.now()), [this, ack] {
    if (!modem_.transmitting()) transmit(ack);
  });
}

// ---------------------------------------------------------------------
// Appender side (A): ride the sender's RTS->CTS wait with an RTA
// ---------------------------------------------------------------------

void Ropa::maybe_send_rta(const Frame& rts, const RxInfo& info) {
  const Packet* packet = head();
  if (state_ != State::kIdle || packet == nullptr) return;
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
  state_ = State::kWaitGrant;
  const std::uint64_t seq = packet->id;
  const NodeId s = rts.src;
  const Duration my_dur = data_airtime(packet->bits);
  sim_.at(launch, [this, seq, s, my_dur] {
    if (state_ != State::kWaitGrant) return;
    if (modem_.transmitting()) {
      state_ = State::kIdle;
      if (head() != nullptr) schedule_attempt(0);
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
    if (state_ == State::kWaitGrant) {
      state_ = State::kIdle;
      if (head() != nullptr) schedule_attempt(0);
    }
  });
}

void Ropa::on_grant(const Frame& frame) {
  const Packet* packet = head();
  if (state_ != State::kWaitGrant || packet == nullptr || frame.seq != packet->id) return;
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  state_ = State::kAppendData;

  const Packet packet_copy = *packet;
  const std::uint32_t bits = packet->bits;
  sim_.at(next_slot_boundary(sim_.now()), [this, packet_copy, bits] {
    if (state_ != State::kAppendData || modem_.transmitting()) return;
    Frame data = make_data_for(FrameType::kExData, packet_copy);
    data.dst = packet_copy.dst;
    transmit(data);
    const Time deadline = sim_.now() + data_airtime(bits) + config_.tau_max +
                          config_.tau_max + omega() + slot_length();
    timeout_event_ = sim_.at(deadline, [this] {
      timeout_event_ = EventHandle{};
      if (state_ == State::kAppendData) {
        state_ = State::kIdle;
        if (head() != nullptr) schedule_attempt(0);
      }
    });
  });
}

// ---------------------------------------------------------------------
// Initiator side (S): drain the recorded appender list after our exchange
// ---------------------------------------------------------------------

void Ropa::begin_grant_phase() {
  state_ = State::kGranting;
  grant_next();
}

void Ropa::grant_next() {
  if (appenders_.empty()) {
    state_ = State::kIdle;
    if (head() != nullptr) schedule_attempt(0);
    return;
  }
  const Appender appender = appenders_.front();
  appenders_.erase(appenders_.begin());

  expected_data_from_ = appender.id;
  expected_seq_ = appender.seq;
  expected_is_append_ = true;

  sim_.at(next_slot_boundary(sim_.now()), [this, appender] {
    if (state_ != State::kGranting || modem_.transmitting()) {
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
      if (state_ == State::kGranting && expected_data_from_ != kNoNode) {
        expected_data_from_ = kNoNode;
        grant_next();
      }
    });
  });
}

// ---------------------------------------------------------------------
// Frame dispatch
// ---------------------------------------------------------------------

void Ropa::handle_frame(const Frame& frame, const RxInfo& info) {
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
    case FrameType::kRta: {
      if ((state_ == State::kWaitCts || state_ == State::kWaitAck) &&
          appenders_.size() < kMaxAppenders) {
        appenders_.push_back(Appender{frame.src, frame.seq, frame.data_duration});
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
      if (state_ != State::kWaitData || expected_is_append_ ||
          frame.src != expected_data_from_ || frame.seq != expected_seq_) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      deliver_data(frame);
      state_ = State::kIdle;
      expected_data_from_ = kNoNode;
      send_ack(frame.src, frame.seq, FrameType::kAck);
      if (head() != nullptr) schedule_attempt(1);
      break;
    }
    case FrameType::kExData: {
      // Appended data arriving at the grant-phase initiator.
      if (state_ != State::kGranting || frame.src != expected_data_from_ ||
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
      if (!appenders_.empty()) {
        begin_grant_phase();
      } else {
        state_ = State::kIdle;
        if (head() != nullptr) schedule_attempt(0);
      }
      break;
    }
    case FrameType::kExAck: {
      const Packet* packet = head();
      if (state_ != State::kAppendData || packet == nullptr ||
          frame.src != packet->dst || frame.seq != packet->id) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      complete_head_packet(/*via_extra=*/true);
      state_ = State::kIdle;
      if (head() != nullptr) schedule_attempt(0);
      break;
    }
    default:
      break;
  }
}

void Ropa::overhear(const Frame& frame, const RxInfo& info) {
  const std::int64_t heard_slot = slot_index(info.arrival_begin);
  switch (frame.type) {
    case FrameType::kRts: {
      const std::int64_t occupancy = data_slots(frame.data_duration, config_.tau_max);
      set_quiet_until(slot_start(heard_slot + 3 + occupancy));
      maybe_send_rta(frame, info);
      break;
    }
    case FrameType::kCts: {
      const std::int64_t occupancy = data_slots(frame.data_duration, config_.tau_max);
      set_quiet_until(slot_start(heard_slot + 2 + occupancy));
      break;
    }
    case FrameType::kData:
      set_quiet_until(info.arrival_end + slot_length() + slot_length());
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
