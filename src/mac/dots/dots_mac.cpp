#include "mac/dots/dots_mac.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void DotsMac::visit_state(StateArchive& ar) {
  SlottedMac::visit_state(ar);
  ar.section("dots", [this](StateArchive& a) {
    a(awaiting_ack_, awaited_packet_);
    a.handle(attempt_event_);
    a.handle(timeout_event_);
    a(schedule_);
  });
}

void DotsMac::start() {}

void DotsMac::handle_packet_enqueued() {
  if (!awaiting_ack_) schedule_attempt(config_.guard);
}

void DotsMac::schedule_attempt(Duration delay) {
  if (!attempt_event_.is_null()) return;
  attempt_event_ = sim_.in(delay, [this] {
    attempt_event_ = EventHandle{};
    attempt();
  });
}

Time DotsMac::pick_launch(Time from, NodeId dst, Duration tau, Duration dur) const {
  Time launch = from;
  // Two passes over the book: pushing past one window can land inside
  // another; a second sweep settles all realistic cases.
  for (int pass = 0; pass < 2; ++pass) {
    // The destination must be able to *hear* us: its own reception
    // windows conflict like everyone else's, and so do its predicted
    // transmit windows (it cannot receive while transmitting).
    for (const auto& w : schedule_.windows()) {
      const auto tau_n =
          w.neighbor == dst ? std::optional<Duration>{tau} : neighbors_.delay_to(w.neighbor);
      if (!tau_n) continue;
      if (w.neighbor != dst && w.kind == BusyKind::kTransmitting) continue;
      const TimeInterval arrival{launch + *tau_n, launch + *tau_n + dur};
      if (arrival.overlaps(w.interval)) {
        launch = w.interval.end + config_.guard - *tau_n;
      }
    }
  }
  return launch;
}

void DotsMac::attempt() {
  const Packet* packet = head();
  if (packet == nullptr || awaiting_ack_) return;
  if (modem_.transmitting()) {
    schedule_attempt(omega());
    return;
  }
  const auto tau = neighbors_.delay_to(packet->dst);
  if (!tau) {
    // Destination unknown: probe blindly; the Hello-refresh from any
    // reply repairs the table. Retries are bounded as usual.
    Packet* mutable_packet = head_mutable();
    mutable_packet->retries += 1;
    if (mutable_packet->retries > config_.max_retries) {
      drop_head_packet();
      if (head() != nullptr) schedule_attempt(config_.guard);
      return;
    }
    broadcast_hello();
    schedule_attempt(2 * config_.tau_max);
    return;
  }

  const Duration dur = data_airtime(packet->bits);
  const Time launch = pick_launch(sim_.now() + config_.guard, packet->dst, *tau, dur);

  const std::uint64_t packet_id = packet->id;
  const std::uint32_t bits = packet->bits;
  const Duration tau_copy = *tau;
  attempt_event_ = sim_.at(launch, [this, packet_id, bits, tau_copy] {
    attempt_event_ = EventHandle{};
    const Packet* head_packet = head();
    if (head_packet == nullptr || head_packet->id != packet_id || awaiting_ack_) return;
    if (modem_.transmitting()) {
      schedule_attempt(omega());
      return;
    }
    Frame data = make_data_for(FrameType::kData, *head_packet);
    data.pair_delay = tau_copy;
    if (head_packet->retries > 0) {
      counters_.retransmitted_frames += 1;
      counters_.retransmitted_bits += data.size_bits;
    }
    counters_.handshake_attempts += 1;
    transmit(data);
    awaiting_ack_ = true;
    awaited_packet_ = packet_id;

    const Time deadline =
        sim_.now() + data_airtime(bits) + tau_copy + tau_copy + omega() + 8 * config_.guard;
    timeout_event_ = sim_.at(deadline, [this, packet_id] {
      timeout_event_ = EventHandle{};
      on_ack_timeout(packet_id);
    });
  });
}

void DotsMac::on_ack_timeout(std::uint64_t packet_id) {
  if (!awaiting_ack_ || awaited_packet_ != packet_id) return;
  awaiting_ack_ = false;
  Packet* packet = head_mutable();
  if (packet == nullptr || packet->id != packet_id) return;
  packet->retries += 1;
  if (packet->retries > config_.max_retries) {
    drop_head_packet();
    if (head() != nullptr) schedule_attempt(config_.guard);
    return;
  }
  // Continuous randomized backoff: uniform over a window that doubles
  // with the retry count (no slot grid to align to).
  const double window_s =
      static_cast<double>(backoff_slots(packet->retries)) * config_.tau_max.to_seconds();
  schedule_attempt(Duration::from_seconds(rng_.uniform(0.0, window_s)));
}

void DotsMac::overhear_data(const Frame& frame, const RxInfo& info) {
  schedule_.prune(sim_.now());
  if (frame.pair_delay.is_zero()) return;
  // The DATA header announces the pair delay; under network-wide sync the
  // timestamp gives the exact launch instant, so the whole exchange
  // (reception + immediate ack) is predictable.
  const Time tx_start = frame.sent_at;
  const Duration dur = info.arrival_end - info.arrival_begin;
  const Time rx_begin = tx_start + frame.pair_delay;
  const Time rx_end = rx_begin + dur;
  schedule_.add(frame.src, TimeInterval{tx_start, tx_start + dur}, BusyKind::kTransmitting);
  schedule_.add(frame.dst, TimeInterval{rx_begin, rx_end}, BusyKind::kReceiving);
  schedule_.add(frame.dst, TimeInterval{rx_end, rx_end + omega()}, BusyKind::kTransmitting);
  schedule_.add(frame.src,
                TimeInterval{rx_end + frame.pair_delay, rx_end + frame.pair_delay + omega()},
                BusyKind::kReceiving);
}

void DotsMac::handle_frame(const Frame& frame, const RxInfo& info) {
  if (frame.dst != id()) {
    if (frame.type == FrameType::kData) overhear_data(frame, info);
    return;
  }

  switch (frame.type) {
    case FrameType::kData: {
      deliver_data(frame);
      if (!modem_.transmitting()) {
        Frame ack = make_control(FrameType::kAck, frame.src);
        ack.seq = frame.seq;
        transmit(ack);
      }
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
        if (head() != nullptr) schedule_attempt(config_.guard);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace aquamac
