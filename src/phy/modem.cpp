#include "phy/modem.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "channel/acoustic_channel.hpp"
#include "sim/checkpoint.hpp"

namespace aquamac {

AcousticModem::AcousticModem(Simulator& sim, NodeId id, ModemConfig config,
                             const ReceptionModel& reception, Rng rng)
    : sim_{sim}, id_{id}, config_{config}, reception_{reception}, rng_{rng} {}

bool AcousticModem::transmitting() const { return sim_.now() < current_tx_end_; }

void AcousticModem::set_position(const Vec3& pos) {
  if (pos == position_) return;
  position_ = pos;
  ++position_epoch_;
  if (channel_ != nullptr) channel_->on_position_changed(*this);
}

void AcousticModem::transmit(Frame frame) {
  if (channel_ == nullptr) throw std::logic_error("modem not attached to a channel");
  if (!operational_) return;  // dead nodes radiate nothing
  if (transmitting()) {
    throw std::logic_error("half-duplex violation: node " + std::to_string(id_) +
                           " transmit() while already transmitting " +
                           sim_.now().to_string());
  }
  if (frame.size_bits == 0) throw std::logic_error("transmit of zero-size frame");

  frame.src = id_;
  frame.sent_at = sim_.now() + clock_error_at(sim_.now());
  const Duration dur = airtime(frame.size_bits);
  const TimeInterval window{sim_.now(), sim_.now() + dur};
  tx_windows_.push_back(window);
  current_tx_end_ = window.end;
  energy_.add_tx_time(dur);
  ++frames_sent_;

  trace_event(TraceEventKind::kTxStart, frame, RxOutcome::kSuccess, window);
  channel_->start_transmission(*this, frame, dur);

  sim_.at(window.end, [this, frame] {
    if (listener_ != nullptr) listener_->on_tx_done(frame);
  });
}

void AcousticModem::trace_event(TraceEventKind kind, const Frame& frame, RxOutcome outcome,
                                TimeInterval window) const {
  if (trace_ == nullptr) return;
  TraceEvent event{};
  event.kind = kind;
  event.at = sim_.now();
  event.node = id_;
  event.frame_type = frame.type;
  event.src = frame.src;
  event.dst = frame.dst;
  event.seq = frame.seq;
  event.bits = frame.size_bits;
  event.outcome = outcome;
  event.window_begin = window.begin;
  event.window_end = window.end;
  trace_->record(event);
}

void AcousticModem::begin_arrival(const Frame& frame, double rx_level_db, TimeInterval window,
                                  double noise_level_db, double detection_threshold_db) {
  if (!operational_) return;  // dead nodes hear nothing
  prune_ledgers();
  const std::uint64_t arrival_id = next_arrival_id_++;
  arrivals_.push_back(Arrival{arrival_id, frame, rx_level_db, window, noise_level_db,
                              detection_threshold_db});
  sim_.at(window.end, [this, arrival_id] { finish_arrival(arrival_id); });
}

void AcousticModem::finish_arrival(std::uint64_t arrival_id) {
  const PhaseScope phase{phase_hook_, SimPhase::kMacProcessing};
  // A node that went down mid-window loses the arrival outright: the
  // ledger entry stays (it still interferes historically) but no decision
  // is made and the MAC hears nothing.
  if (!operational_) return;
  const auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                               [arrival_id](const Arrival& a) { return a.id == arrival_id; });
  assert(it != arrivals_.end() && "arrival pruned before its end event");
  const Arrival arrival = *it;  // copy: ledger may be consulted below

  ReceptionContext ctx{};
  ctx.rx_level_db = arrival.rx_level_db;
  ctx.noise_level_db = arrival.noise_level_db;
  ctx.bits = arrival.frame.size_bits;
  ctx.detection_threshold_db = arrival.detection_threshold_db;
  for (const Arrival& other : arrivals_) {
    if (other.id != arrival.id && other.window.overlaps(arrival.window)) {
      ctx.interferer_levels_db.push_back(other.rx_level_db);
    }
  }
  for (const TimeInterval& tx : tx_windows_) {
    if (tx.overlaps(arrival.window)) {
      ctx.receiver_transmitted = true;
      break;
    }
  }

  RxOutcome outcome = reception_.decide(ctx, rng_);
  if (outcome == RxOutcome::kSuccess && impairment_ &&
      impairment_(id_, arrival.window.begin)) {
    outcome = RxOutcome::kChannelError;
  }

  // Active-receive energy: the union of arrival windows, tracked with a
  // watermark so overlapping arrivals are not double-billed.
  const Time billed_from = std::max(arrival.window.begin, last_rx_accounted_until_);
  if (arrival.window.end > billed_from) {
    energy_.add_rx_time(arrival.window.end - billed_from);
    last_rx_accounted_until_ = arrival.window.end;
  }

  RxInfo info{};
  info.arrival_begin = arrival.window.begin;
  info.arrival_end = arrival.window.end;
  info.rx_level_db = arrival.rx_level_db;
  // The receiver reads its own (possibly offset + drifted) clock.
  info.measured_delay =
      (arrival.window.begin + clock_error_at(arrival.window.begin)) - arrival.frame.sent_at;

  if (outcome == RxOutcome::kSuccess) {
    ++frames_received_;
    trace_event(TraceEventKind::kRxOk, arrival.frame, outcome, arrival.window);
    if (listener_ != nullptr) listener_->on_frame_received(arrival.frame, info);
  } else if (outcome != RxOutcome::kBelowThreshold) {
    ++rx_losses_;
    trace_event(TraceEventKind::kRxLost, arrival.frame, outcome, arrival.window);
    if (listener_ != nullptr) listener_->on_rx_failure(arrival.frame, outcome, info);
  }
  // kBelowThreshold arrivals are interference-only: never seen by the MAC
  // and not counted as losses (the receiver was simply out of comm range).
}

void AcousticModem::prune_ledgers() {
  const Time now = sim_.now();
  // Strict '<' keeps windows ending exactly now: they can still overlap
  // arrivals judged at this same instant.
  std::erase_if(arrivals_, [now](const Arrival& a) { return a.window.end < now; });
  std::erase_if(tx_windows_, [now](const TimeInterval& w) { return w.end < now; });
}

void AcousticModem::Arrival::visit_state(StateArchive& ar) {
  ar(id, frame, rx_level_db, window, noise_level_db, detection_threshold_db);
}

void AcousticModem::visit_state(StateArchive& ar) {
  ar.section("modem", [this](StateArchive& a) {
    a(rng_, arrivals_, tx_windows_, next_arrival_id_, current_tx_end_, energy_,
      last_rx_accounted_until_, clock_offset_, clock_drift_ppm_, operational_, position_,
      position_epoch_, frames_sent_, frames_received_, rx_losses_);
  });
}

}  // namespace aquamac
