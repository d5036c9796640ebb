#include "mac/ewmac/ew_mac.hpp"

#include <algorithm>

#include "sim/checkpoint.hpp"

namespace aquamac {

void EwMac::ExtraPlan::visit_state(StateArchive& ar) {
  ar(j, j_is_receiver, seq, tau_ij, tau_jk, neg_data_duration, ack_slot_start);
}

void EwMac::ExtraGrant::visit_state(StateArchive& ar) { ar(i, seq, expires); }

void EwMac::visit_state(StateArchive& ar) {
  visit_handshake(ar, [this](StateArchive& a) {
    a(neg_data_begin_, neg_ack_slot_start_, extra_, grant_);
    a.handle(grant_expiry_event_);
    a(schedule_);
  });
}

void EwMac::handle_reset() {
  // Outage rejoin: every pending timer and handshake belief predates the
  // outage, so none of it can be trusted.
  sim_.cancel(grant_expiry_event_);
  grant_expiry_event_ = EventHandle{};
  extra_.reset();
  grant_.reset();
  schedule_ = ScheduleBook{};
  HandshakeMac::handle_reset();
}

// ---------------------------------------------------------------------
// Negotiated path: EW-MAC's additions to the HandshakeMac cycle
// ---------------------------------------------------------------------

double EwMac::make_priority(const Packet& packet) {
  // §3.1: rp is random but grows with the sender's wait time, so starved
  // senders eventually win contention. The random tiebreak keeps equal
  // waiters from deterministic capture.
  const double jitter = rng_.uniform01();
  if (!config_.enable_priority) return jitter;
  const double waited_slots =
      (sim_.now() - packet.enqueued).to_seconds() / slot_length().to_seconds();
  return waited_slots + jitter;
}

void EwMac::decorate_negotiation(Frame& frame) {
  if (frame.type == FrameType::kRts) frame.priority_rp = make_priority(*head());
}

const HandshakeMac::Candidate& EwMac::contention_winner(
    const std::vector<Candidate>& candidates) const {
  return *std::max_element(candidates.begin(), candidates.end(),
                           [](const Candidate& a, const Candidate& b) { return a.rp < b.rp; });
}

void EwMac::cts_sent(const Candidate& winner) {
  const std::int64_t cts_slot = slot_index(sim_.now());
  neg_data_begin_ = slot_start(cts_slot + 1) + winner.delay_to_src;
  neg_ack_slot_start_ =
      slot_start(cts_slot + 1 + data_slots(winner.data_duration, winner.delay_to_src));
}

void EwMac::cts_timed_out() {
  if (const Packet* p = head()) record_handshake_silence(p->dst);
}

// ---------------------------------------------------------------------
// Extra communication: asking side (sensor i, §4.2)
// ---------------------------------------------------------------------

void EwMac::contention_lost(const Frame& negotiation, const RxInfo& info) {
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  record_contention_loss(&negotiation);

  const Packet* packet = head();
  if (!config_.enable_extra || packet == nullptr) {
    fail_and_backoff();
    return;
  }

  // The extra plan's launch windows (EXR deadline, EXDATA slot) are all
  // derived from the negotiated exchange's pair delay. When the
  // negotiation carried none (fresh table after an outage), the real
  // schedule is whatever the participants measure in flight — betting on
  // the tau_max fallback risks landing the extra on a real window, so
  // fall back to ordinary backoff instead.
  if (negotiation.pair_delay.is_zero()) {
    fail_and_backoff();
    return;
  }

  const bool j_is_receiver = negotiation.type == FrameType::kCts;
  const Duration tau_ij = info.measured_delay;
  const Duration tau_jk =
      negotiation.pair_delay.is_zero() ? config_.tau_max : negotiation.pair_delay;
  const Duration d_neg = negotiation.data_duration;
  const std::int64_t heard_slot = slot_index(info.arrival_begin);

  ExtraPlan plan{};
  plan.j = negotiation.src;
  plan.j_is_receiver = j_is_receiver;
  plan.seq = packet->id;
  plan.tau_ij = tau_ij;
  plan.tau_jk = tau_jk;
  plan.neg_data_duration = d_neg;

  const Duration my_data_dur = data_airtime(packet->bits);
  Time exr_time{};
  bool feasible = false;

  if (j_is_receiver) {
    // Fig. 4: j sent CTS(j,k) in slot c; Data(k,j) leaves at S(c+1) and
    // reaches j at S(c+1)+tau_jk. EXR goes out "in the next time slot of
    // CTS at the beginning after beta" and must be fully received at j
    // before the data's leading edge (period V).
    const std::int64_t c = heard_slot;
    plan.ack_slot_start = slot_start(c + 1 + data_slots(d_neg, tau_jk));
    const Duration bound = tau_jk - tau_ij - omega() - config_.guard - config_.guard_slack;
    if (!bound.is_negative()) {
      const Time base = slot_start(c + 1);
      // Try a few launch offsets within [0, bound] until the arrival is
      // clear at every schedulable neighbor.
      for (int step = 0; step < 4 && !feasible; ++step) {
        const Duration beta = bound * step / 4;
        const Time candidate = base + beta;
        if (candidate <= sim_.now()) continue;
        if (clear_at_neighbors(candidate, omega(), plan.j)) {
          exr_time = candidate;
          feasible = true;
        }
      }
    }
  } else {
    // j sent RTS(j,k) in slot t: j idles from the end of its RTS until
    // CTS(k,j) arrives at S(t+1)+tau_jk (period III). EXR can leave
    // immediately.
    const std::int64_t t = heard_slot;
    plan.ack_slot_start = slot_start(t + 2 + data_slots(d_neg, tau_jk));
    const Time candidate = sim_.now() + config_.guard;
    const Time arrival_deadline =
        slot_start(t + 1) + tau_jk - config_.guard - config_.guard_slack;
    if (candidate + tau_ij + omega() <= arrival_deadline &&
        clear_at_neighbors(candidate, omega(), plan.j)) {
      exr_time = candidate;
      feasible = true;
    }
  }

  if (!feasible) {
    fail_and_backoff();
    return;
  }

  extra_ = plan;
  set_state(kAskingExtra);
  counters_.extra_attempts += 1;

  const std::uint64_t seq = plan.seq;
  const NodeId j = plan.j;
  const Duration my_dur = my_data_dur;
  sim_.at(exr_time, [this, seq, j, my_dur] {
    if (state() != kAskingExtra || !extra_ || extra_->seq != seq) return;
    if (modem_.transmitting()) {
      abandon_extra();
      return;
    }
    Frame exr = make_control(FrameType::kExr, j);
    exr.seq = seq;
    exr.data_duration = my_dur;
    if (const auto delay = neighbors_.delay_to(j)) exr.pair_delay = *delay;
    transmit(exr);

    // "If sensor i receives EXC after twice the propagation time" — allow
    // the round trip plus both control airtimes.
    const Time deadline =
        sim_.now() + extra_->tau_ij + extra_->tau_ij + omega() + omega() + 4 * config_.guard;
    timeout_event_ = sim_.at(deadline, [this] {
      timeout_event_ = EventHandle{};
      if (state() == kAskingExtra) abandon_extra();
    });
  });
}

void EwMac::on_exc(const Frame& frame) {
  if (state() != kAskingExtra || !extra_ || frame.src != extra_->j ||
      frame.seq != extra_->seq) {
    return;
  }
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};

  const Packet* packet = head();
  if (packet == nullptr || packet->id != extra_->seq) {
    abandon_extra();
    return;
  }
  const Duration my_dur = data_airtime(packet->bits);

  // Eq. (6): launch EXDATA so its leading edge reaches j right after j's
  // negotiated exchange no longer needs the channel.
  // guard_slack hardens every deadline below against clock error: the
  // launch moves later by the slack and predicted windows are widened by
  // twice the slack, so any drift below it cannot create an overlap the
  // synchronized schedule would not have had (extra packets only shrink
  // their feasible windows, preserving the overlap theorem).
  Time tx_time{};
  if (extra_->j_is_receiver) {
    // Arrival begins as j finishes transmitting Ack(j,k).
    tx_time = extra_->ack_slot_start + omega() + config_.guard_slack - extra_->tau_ij;
  } else {
    // Arrival begins after j finishes *receiving* Ack(k,j).
    tx_time = extra_->ack_slot_start + extra_->tau_jk + omega() + config_.guard +
              config_.guard_slack - extra_->tau_ij;
  }

  // Shift past any predicted neighbor reception we would garble.
  const Duration pad = 2 * config_.guard_slack;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& w : schedule_.windows()) {
      if (w.kind != BusyKind::kReceiving || w.neighbor == extra_->j) continue;
      const auto tau_in = neighbors_.delay_to(w.neighbor);
      if (!tau_in) continue;
      const TimeInterval wide{w.interval.begin - pad, w.interval.end + pad};
      const TimeInterval arrival{tx_time + *tau_in, tx_time + *tau_in + my_dur};
      if (arrival.overlaps(wide)) {
        tx_time = wide.end + config_.guard - *tau_in;
      }
    }
  }
  if (tx_time <= sim_.now() || tx_time > extra_->ack_slot_start + slot_length() + slot_length()) {
    abandon_extra();
    return;
  }

  if (trace_ != nullptr) {
    TraceEvent ev{};
    ev.kind = TraceEventKind::kExtraScheduled;
    ev.frame_type = FrameType::kExData;
    ev.dst = extra_->j;
    ev.seq = extra_->seq;
    ev.window_begin = tx_time;
    ev.window_end = tx_time + my_dur;
    trace_mac(ev);
  }
  set_state(kWaitExAck);
  const std::uint64_t seq = extra_->seq;
  const NodeId j = extra_->j;
  const Duration tau_ij = extra_->tau_ij;
  sim_.at(tx_time, [this, seq, j, my_dur, tau_ij] {
    if (state() != kWaitExAck || !extra_ || extra_->seq != seq) return;
    if (modem_.transmitting() || head() == nullptr || head()->id != seq) {
      abandon_extra();
      return;
    }
    // Re-validate against the schedule book as it stands *now*: a
    // negotiation overheard after the launch was planned predicts
    // receptions the plan never saw, and launching into one garbles a
    // real window.
    if (!clear_at_neighbors(sim_.now(), my_dur, j)) {
      abandon_extra();
      return;
    }
    Frame exdata = make_data_for(FrameType::kExData, *head());
    transmit(exdata);
    const Time deadline =
        sim_.now() + my_dur + tau_ij + tau_ij + omega() + omega() + 4 * config_.guard;
    timeout_event_ = sim_.at(deadline, [this] {
      timeout_event_ = EventHandle{};
      if (state() == kWaitExAck) abandon_extra();
    });
  });
}

void EwMac::on_exack(const Frame& frame) {
  const Packet* packet = head();
  if (state() != kWaitExAck || !extra_ || packet == nullptr ||
      frame.seq != extra_->seq || frame.src != extra_->j) {
    return;
  }
  sim_.cancel(timeout_event_);
  timeout_event_ = EventHandle{};
  complete_head_packet(/*via_extra=*/true);
  extra_.reset();
  return_to_idle();
}

void EwMac::abandon_extra() {
  // Fig. 3: giving up the extra chance sends the sensor through Quiet
  // back to Idle; the packet re-enters normal contention with backoff.
  fail_and_backoff();
}

// ---------------------------------------------------------------------
// Extra communication: asked side (sensor j)
// ---------------------------------------------------------------------

void EwMac::on_exr(const Frame& frame) {
  if (grant_.has_value()) return;  // one extra exchange at a time

  Time expiry{};
  if (state() == State::kWaitData) {
    // We are the receiver of a negotiated exchange: the EXC must be fully
    // radiated before our peer's data starts arriving (period V).
    if (sim_.now() + omega() + config_.guard + config_.guard_slack > neg_data_begin_) return;
    expiry = neg_ack_slot_start_ + slot_length() * 3;
  } else if (state() == State::kWaitCts) {
    // We are a negotiating sender: period III lasts until the CTS we are
    // waiting for arrives.
    const Packet* packet = head();
    if (packet == nullptr) return;
    const auto tau = neighbors_.delay_to(packet->dst);
    if (!tau) return;
    const Time cts_arrival = slot_start(slot_index(sim_.now()) + 1) + *tau;
    if (sim_.now() + omega() + config_.guard + config_.guard_slack > cts_arrival) return;
    const std::int64_t ack_slot =
        slot_index(sim_.now()) + 2 + data_slots(data_airtime(packet->bits), *tau);
    expiry = slot_start(ack_slot) + *tau + omega() + slot_length() * 3;
  } else {
    return;
  }

  if (modem_.transmitting()) return;
  if (!clear_at_neighbors(sim_.now(), omega(), frame.src)) return;

  Frame exc = make_control(FrameType::kExc, frame.src);
  exc.seq = frame.seq;
  exc.data_duration = frame.data_duration;
  if (const auto delay = neighbors_.delay_to(frame.src)) exc.pair_delay = *delay;
  transmit(exc);

  grant_ = ExtraGrant{frame.src, frame.seq, expiry};
  if (trace_ != nullptr) {
    TraceEvent ev{};
    ev.kind = TraceEventKind::kExtraNegotiated;
    ev.frame_type = FrameType::kExc;
    ev.src = frame.src;
    ev.dst = id();
    ev.seq = frame.seq;
    ev.window_begin = sim_.now();
    ev.window_end = expiry;
    trace_mac(ev);
  }
  set_quiet_until(expiry);
  grant_expiry_event_ = sim_.at(expiry, [this] {
    grant_expiry_event_ = EventHandle{};
    grant_.reset();
  });
}

void EwMac::on_exdata(const Frame& frame) {
  if (!grant_ || frame.src != grant_->i || frame.seq != grant_->seq) return;
  deliver_data(frame);
  sim_.cancel(grant_expiry_event_);
  grant_expiry_event_ = EventHandle{};
  grant_.reset();

  if (modem_.transmitting()) return;  // asker times out and retries
  Frame exack = make_control(FrameType::kExAck, frame.src);
  exack.seq = frame.seq;
  transmit(exack);
}

// ---------------------------------------------------------------------
// Overhearing and schedule prediction
// ---------------------------------------------------------------------

void EwMac::predict_exchange(const Frame& frame, const RxInfo& info) {
  // A zero pair delay means the negotiation carried no measurement (fresh
  // table after an outage rejoin or first contact). The participants will
  // schedule the Ack from the delay they measure in flight — which an
  // overhearer cannot reproduce, so the prediction must cover every slot
  // the true delay could select. The old tau_max fallback predicted only
  // the *latest* candidate slot, leaving the real Ack window unprotected
  // whenever the true delay picked an earlier one (an extra scheduled
  // into the mispredicted gap then garbles a real reception).
  const bool tau_known = !frame.pair_delay.is_zero();
  const Duration tau_pair = tau_known ? frame.pair_delay : config_.tau_max;
  const Duration d = frame.data_duration;
  const std::int64_t heard_slot = slot_index(info.arrival_begin);

  if (frame.type == FrameType::kRts) {
    const NodeId j = frame.src;  // sender
    const NodeId k = frame.dst;  // receiver (if it grants)
    const Time cts_tx = slot_start(heard_slot + 1);
    const Time data_tx = slot_start(heard_slot + 2);
    schedule_.add(k, TimeInterval{cts_tx, cts_tx + omega()}, BusyKind::kTransmitting);
    schedule_.add(j, TimeInterval{data_tx, data_tx + d}, BusyKind::kTransmitting);
    if (tau_known) {
      const Time ack_tx = slot_start(heard_slot + 2 + data_slots(d, tau_pair));
      schedule_.add(j, TimeInterval{cts_tx + tau_pair, cts_tx + tau_pair + omega()},
                    BusyKind::kReceiving);
      schedule_.add(k, TimeInterval{data_tx + tau_pair, data_tx + tau_pair + d},
                    BusyKind::kReceiving);
      schedule_.add(k, TimeInterval{ack_tx, ack_tx + omega()}, BusyKind::kTransmitting);
      schedule_.add(j, TimeInterval{ack_tx + tau_pair, ack_tx + tau_pair + omega()},
                    BusyKind::kReceiving);
    } else {
      const Time first_ack = slot_start(heard_slot + 2 + data_slots(d, Duration::zero()));
      const Time last_ack = slot_start(heard_slot + 2 + data_slots(d, config_.tau_max));
      schedule_.add(j, TimeInterval{cts_tx, cts_tx + config_.tau_max + omega()},
                    BusyKind::kReceiving);
      schedule_.add(k, TimeInterval{data_tx, data_tx + config_.tau_max + d},
                    BusyKind::kReceiving);
      schedule_.add(k, TimeInterval{first_ack, last_ack + omega()},
                    BusyKind::kTransmitting);
      schedule_.add(j, TimeInterval{first_ack, last_ack + config_.tau_max + omega()},
                    BusyKind::kReceiving);
    }
  } else if (frame.type == FrameType::kCts) {
    const NodeId j = frame.src;  // receiver
    const NodeId k = frame.dst;  // sender
    const Time data_tx = slot_start(heard_slot + 1);
    schedule_.add(k, TimeInterval{data_tx, data_tx + d}, BusyKind::kTransmitting);
    if (tau_known) {
      const Time ack_tx = slot_start(heard_slot + 1 + data_slots(d, tau_pair));
      schedule_.add(j, TimeInterval{data_tx + tau_pair, data_tx + tau_pair + d},
                    BusyKind::kReceiving);
      schedule_.add(j, TimeInterval{ack_tx, ack_tx + omega()}, BusyKind::kTransmitting);
      schedule_.add(k, TimeInterval{ack_tx + tau_pair, ack_tx + tau_pair + omega()},
                    BusyKind::kReceiving);
    } else {
      const Time first_ack = slot_start(heard_slot + 1 + data_slots(d, Duration::zero()));
      const Time last_ack = slot_start(heard_slot + 1 + data_slots(d, config_.tau_max));
      schedule_.add(j, TimeInterval{data_tx, data_tx + config_.tau_max + d},
                    BusyKind::kReceiving);
      schedule_.add(j, TimeInterval{first_ack, last_ack + omega()},
                    BusyKind::kTransmitting);
      schedule_.add(k, TimeInterval{first_ack, last_ack + config_.tau_max + omega()},
                    BusyKind::kReceiving);
    }
  }
}

bool EwMac::clear_at_neighbors(Time tx_begin, Duration dur, NodeId exempt) const {
  // Widen every predicted window by twice the guard slack: both our clock
  // and the predicted node's clock may each be wrong by up to the slack.
  const Duration pad = 2 * config_.guard_slack;
  for (const auto& w : schedule_.windows()) {
    if (w.kind != BusyKind::kReceiving || w.neighbor == exempt) continue;
    const auto tau = neighbors_.delay_to(w.neighbor);
    if (!tau) continue;  // unknown delay => outside our reach in practice
    const TimeInterval wide{w.interval.begin - pad, w.interval.end + pad};
    const TimeInterval arrival{tx_begin + *tau, tx_begin + *tau + dur};
    if (arrival.overlaps(wide)) return false;
  }
  return true;
}

void EwMac::overheard(const Frame& frame, const RxInfo& info) {
  schedule_.prune(sim_.now());
  predict_exchange(frame, info);
  keep_quiet_for(frame, info, frame.pair_delay.is_zero() ? config_.tau_max : frame.pair_delay);
  switch (frame.type) {
    case FrameType::kExr:
    case FrameType::kExc:
      // Stay clear of the granted extra exchange (§4.2 closing note).
      set_quiet_until(info.arrival_end + slot_length() + frame.data_duration + slot_length());
      break;
    case FrameType::kExData:
      set_quiet_until(info.arrival_end + omega() + config_.tau_max);
      break;
    default:
      break;
  }
}

void EwMac::handle_extra_frame(const Frame& frame, const RxInfo&) {
  switch (frame.type) {
    case FrameType::kExr:
      on_exr(frame);
      break;
    case FrameType::kExc:
      on_exc(frame);
      break;
    case FrameType::kExData:
      on_exdata(frame);
      break;
    case FrameType::kExAck:
      on_exack(frame);
      break;
    default:
      break;
  }
}

}  // namespace aquamac
