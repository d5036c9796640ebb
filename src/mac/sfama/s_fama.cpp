#include "mac/sfama/s_fama.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void SFama::PendingRts::visit_state(StateArchive& ar) {
  ar(src, seq, data_duration, delay_to_src);
}

void SFama::visit_state(StateArchive& ar) {
  SlottedMac::visit_state(ar);
  ar.section("s-fama", [this](StateArchive& a) {
    a.as<std::uint32_t>(state_);
    a.handle(attempt_event_);
    a.handle(timeout_event_);
    a.handle(decide_event_);
    a(pending_rts_, expected_data_from_, expected_seq_);
  });
}

void SFama::start() {}

void SFama::set_state(State next) {
  if (next != state_) trace_state(static_cast<int>(state_), static_cast<int>(next));
  state_ = next;
}

void SFama::handle_packet_enqueued() {
  if (state_ == State::kIdle) schedule_attempt(0);
}

void SFama::schedule_attempt(std::int64_t extra_slots) {
  if (!attempt_event_.is_null()) return;
  const Time when = next_slot_boundary(sim_.now()) + slot_length() * extra_slots;
  attempt_event_ = sim_.at(when, [this] {
    attempt_event_ = EventHandle{};
    attempt_rts();
  });
}

void SFama::attempt_rts() {
  const Packet* packet = head();
  if (packet == nullptr || state_ != State::kIdle) return;
  if (quiet_now() || modem_.transmitting() || pending_rts_.has_value()) {
    // Deferred: retry at the first boundary after the quiet period.
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
  if (packet->retries > 0) {
    counters_.retransmitted_frames += 1;
    counters_.retransmitted_bits += rts.size_bits;
  }
  counters_.handshake_attempts += 1;
  if (trace_ != nullptr) {
    TraceEvent ev{};
    ev.kind = TraceEventKind::kSlotBoundary;
    ev.frame_type = FrameType::kRts;
    ev.a = slot_index(sim_.now());
    trace_mac(ev);
  }
  transmit(rts);
  set_state(State::kWaitCts);

  // CTS is sent at slot t+1 and arrives within it; give one slot slack.
  const Time deadline = slot_start(slot_index(sim_.now()) + 3);
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

void SFama::fail_and_backoff() {
  set_state(State::kIdle);
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

void SFama::handle_frame(const Frame& frame, const RxInfo& info) {
  if (frame.dst != id()) {
    overhear(frame, info);
    return;
  }

  switch (frame.type) {
    case FrameType::kRts: {
      // Receiver: answer at the next slot boundary if free.
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
      set_state(State::kWaitAck);
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
        // Eq. (5): Ack slot = data slot + ceil((TD + tau) / |ts|).
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
      set_state(State::kIdle);
      expected_data_from_ = kNoNode;
      send_ack(frame.src, frame.seq);
      if (head() != nullptr) schedule_attempt(0);
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
      if (head() != nullptr) schedule_attempt(0);
      break;
    }
    default:
      break;
  }
}

void SFama::decide_cts() {
  if (!pending_rts_.has_value()) return;
  const PendingRts rts = *pending_rts_;
  pending_rts_.reset();
  if (state_ != State::kIdle || quiet_now() || modem_.transmitting()) return;

  if (trace_ != nullptr) {
    TraceEvent boundary{};
    boundary.kind = TraceEventKind::kSlotBoundary;
    boundary.frame_type = FrameType::kCts;
    boundary.a = slot_index(sim_.now());
    trace_mac(boundary);
    // S-FAMA grants the first RTS of the slot; rp is not used (value 0).
    TraceEvent win{};
    win.kind = TraceEventKind::kContentionWin;
    win.src = rts.src;
    win.dst = id();
    win.seq = rts.seq;
    trace_mac(win);
  }
  Frame cts = make_control(FrameType::kCts, rts.src);
  cts.seq = rts.seq;
  cts.data_duration = rts.data_duration;
  cts.pair_delay = rts.delay_to_src;
  transmit(cts);
  set_state(State::kWaitData);
  expected_data_from_ = rts.src;
  expected_seq_ = rts.seq;

  // DATA is sent in the next slot and takes data_slots to arrive in full.
  const std::int64_t occupancy = data_slots(rts.data_duration, rts.delay_to_src);
  const Time deadline = slot_start(slot_index(sim_.now()) + 1 + occupancy + 2);
  timeout_event_ = sim_.at(deadline, [this] {
    timeout_event_ = EventHandle{};
    if (state_ == State::kWaitData) {
      set_state(State::kIdle);
      expected_data_from_ = kNoNode;
      if (head() != nullptr) schedule_attempt(0);
    }
  });
}

void SFama::send_ack(NodeId dst, std::uint64_t seq) {
  Frame ack = make_control(FrameType::kAck, dst);
  ack.seq = seq;
  sim_.at(next_slot_boundary(sim_.now()), [this, ack] {
    if (!modem_.transmitting()) transmit(ack);
  });
}

void SFama::overhear(const Frame& frame, const RxInfo& info) {
  // S-FAMA reserves a *maximal* propagation delay for every stage, so an
  // overhearer computes the conservative end of the whole exchange.
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
      break;
    }
    case FrameType::kData: {
      // Remain quiet through the Ack that follows the data.
      set_quiet_until(info.arrival_end + slot_length() + slot_length());
      break;
    }
    default:
      break;
  }
}

}  // namespace aquamac
