#include "stats/invariant_auditor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace aquamac {

namespace {

[[nodiscard]] bool is_negotiated(FrameType type) {
  return type == FrameType::kRts || type == FrameType::kCts || type == FrameType::kData ||
         type == FrameType::kAck;
}

}  // namespace

std::string_view to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kExtraOverlap: return "extra-overlap";
    case InvariantKind::kOffSlotStart: return "off-slot-start";
    case InvariantKind::kAckSlotMismatch: return "ack-slot-mismatch";
    case InvariantKind::kNeighborDelayDrift: return "neighbor-delay-drift";
    case InvariantKind::kPacketRevisit: return "packet-revisit";
    case InvariantKind::kHopCountExceedsRoute: return "hop-count-exceeds-route";
    case InvariantKind::kDuplicateSinkDelivery: return "duplicate-sink-delivery";
    case InvariantKind::kRetryExceedsBound: return "retry-exceeds-bound";
  }
  return "?";
}

void InvariantAuditor::record(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kTxStart: on_tx_start(event); break;
    case TraceEventKind::kRxOk:
    case TraceEventKind::kRxLost: on_rx(event); break;
    case TraceEventKind::kNeighborUpdate: on_neighbor_update(event); break;
    case TraceEventKind::kFaultNodeDown:
      node_states_[event.node].down = true;
      break;
    case TraceEventKind::kFaultNodeUp: {
      // The MAC forgot everything on rejoin, so the auditor must too; the
      // node stays unhealthy for the grace period while it re-learns.
      NodeState fresh{};
      fresh.unhealthy_until = event.at + config_.rejoin_grace;
      node_states_[event.node] = std::move(fresh);
      break;
    }
    case TraceEventKind::kNeighborEvicted:
      // The evictor no longer has a measured delay to this neighbor, so
      // knowledge-scoped checks must not hold it to one.
      node_states_[event.node].knows_since.erase(event.src);
      break;
    case TraceEventKind::kRouteUpdate:
      // Routing churn: open the route_grace window for checks (e)/(f).
      any_route_update_ = true;
      last_route_update_ = event.at;
      break;
    case TraceEventKind::kRelayOriginate: on_relay_originate(event); break;
    case TraceEventKind::kRelayForward: on_relay_forward(event); break;
    case TraceEventKind::kRelayArrive: on_relay_arrive(event); break;
    case TraceEventKind::kRelayRetry: on_relay_retry(event); break;
    case TraceEventKind::kRelayRequeue:
      // A failover retransmission (b = 1) legitimately leaves the
      // advertised route, so check (f) no longer bounds this flight.
      if (event.b == 1) {
        const auto it = flights_.find(event.seq);
        if (it != flights_.end()) it->second.advertised_hops = 0;
      }
      break;
    case TraceEventKind::kRelayDeadLetter:
      // Custody abandoned: this copy is gone; stop tracking the flight.
      flights_.erase(event.seq);
      break;
    // The kinds below carry context the auditor observes but has no
    // obligation for. No `default`: -Wswitch makes a new kind choose here.
    case TraceEventKind::kMacState:
    case TraceEventKind::kSlotBoundary:
    case TraceEventKind::kContentionWin:
    case TraceEventKind::kContentionLoss:
      break;  // MAC context, no auditor obligation
    case TraceEventKind::kExtraNegotiated:
    case TraceEventKind::kExtraScheduled:
      break;  // extra-overlap theorem is checked at kTxStart
    case TraceEventKind::kFaultClockStep:
    case TraceEventKind::kFaultBurstBegin:
    case TraceEventKind::kFaultBurstEnd:
    case TraceEventKind::kFaultStormBegin:
    case TraceEventKind::kFaultStormEnd:
      break;  // channel-shaping faults, no per-node state
    case TraceEventKind::kNeighborDead:
    case TraceEventKind::kNeighborProbe:
      break;  // probing telemetry, no knowledge change
  }
}

bool InvariantAuditor::healthy(NodeId node, Time at) const {
  const auto it = node_states_.find(node);
  if (it == node_states_.end()) return true;
  return !it->second.down && at >= it->second.unhealthy_until;
}

Time InvariantAuditor::match_tx(const TxKey& key, Time arrival_begin) const {
  const auto it = tx_times_.find(key);
  if (it == tx_times_.end()) return arrival_begin;
  // Channel delays can slightly exceed tau_max (refracted paths); accept
  // a slot of slack and keep the latest launch not after the arrival.
  const Duration bound = config_.tau_max + config_.slot_length;
  Time best{};
  bool found = false;
  const std::size_t live = std::min(it->second.count, TxRing::kSlots);
  for (std::size_t i = 0; i < live; ++i) {
    const Time t = it->second.at[i];
    if (t > arrival_begin || arrival_begin - t > bound) continue;
    if (!found || t > best) {
      best = t;
      found = true;
    }
  }
  return found ? best : arrival_begin;
}

void InvariantAuditor::on_tx_start(const TraceEvent& event) {
  tx_times_[TxKey{event.src, static_cast<std::uint8_t>(event.frame_type), event.seq}].push(
      event.at);

  // Every RTS launch (re)starts its exchange's attempt: the retry
  // timeout exceeds the CTS round trip, so all decodes of the previous
  // attempt land before this launch and the scoping in check (a) cannot
  // misclassify them as current.
  if (event.frame_type == FrameType::kRts) {
    attempt_started_[ExchangeKey{std::min(event.src, event.dst),
                                 std::max(event.src, event.dst), event.seq}] = event.at;
  }

  if (config_.slotted && is_negotiated(event.frame_type) &&
      healthy(event.node, event.at)) {
    // (b): negotiated packets start on slot boundaries (§4.1).
    checks_ += 1;
    const Duration offset = event.at - slot_start(slot_index(event.at));
    if (offset > config_.sync_tolerance) {
      std::ostringstream detail;
      detail << "tx at " << event.at.to_string() << " is " << offset.to_string()
             << " past the slot " << slot_index(event.at) << " boundary";
      add_violation(Violation{InvariantKind::kOffSlotStart, event.at, event.node,
                              event.frame_type, event.src, event.dst, event.seq,
                              detail.str()});
    }

    // (c): consume a pending Eq.-5 expectation when the Ack launches.
    if (event.frame_type == FrameType::kAck) {
      NodeState& state = node_states_[event.node];
      const TxKey data_key{event.dst, static_cast<std::uint8_t>(FrameType::kData), event.seq};
      const auto it = state.ack_slot_expect.find(data_key);
      if (it != state.ack_slot_expect.end()) {
        checks_ += 1;
        const std::int64_t actual = slot_index(event.at);
        if (actual != it->second) {
          std::ostringstream detail;
          detail << "ack launched in slot " << actual << ", Eq. (5) expects slot "
                 << it->second;
          add_violation(Violation{InvariantKind::kAckSlotMismatch, event.at, event.node,
                                  event.frame_type, event.src, event.dst, event.seq,
                                  detail.str()});
        }
        state.ack_slot_expect.erase(it);
      }
    }
  }
}

void InvariantAuditor::on_rx(const TraceEvent& event) {
  // Hello / Rta / Maint are outside both the negotiated handshake and the
  // extra phase; they still feed the knowledge maps below via kRxOk.
  const bool audited_class = is_extra(event.frame_type) || is_negotiated(event.frame_type);

  NodeState& state = node_states_[event.node];
  ArrivalWindow window{};
  window.iv = TimeInterval{event.window_begin, event.window_end};
  window.type = event.frame_type;
  window.src = event.src;
  window.dst = event.dst;
  window.seq = event.seq;
  window.tx_at = match_tx(
      TxKey{event.src, static_cast<std::uint8_t>(event.frame_type), event.seq},
      event.window_begin);

  if (event.kind == TraceEventKind::kRxOk) {
    // Knowledge accrual: a decoded frame gives this node a measured delay
    // to its sender (§4.3); a decoded RTS/CTS reveals the exchange.
    state.knows_since.emplace(event.src, event.at);
    if (event.frame_type == FrameType::kRts || event.frame_type == FrameType::kCts) {
      const ExchangeKey key{std::min(event.src, event.dst), std::max(event.src, event.dst),
                            event.seq};
      state.heard[key].push(event.at);
    }
    state.last_rx = window;
    state.last_rx_valid = true;

    // (c) setup: an arrived DATA addressed here defines the Eq.-5 slot of
    // the Ack this node will send. Latest arrival wins (retransmissions).
    if (config_.slotted && event.frame_type == FrameType::kData && event.dst == event.node) {
      const Duration tau = event.window_begin - window.tx_at;
      const Duration airtime = event.window_end - event.window_begin;
      state.ack_slot_expect[TxKey{event.src, static_cast<std::uint8_t>(FrameType::kData),
                                  event.seq}] =
          slot_index(window.tx_at) + (airtime + tau).divide_ceil(config_.slot_length);
    }
  }

  if (audited_class) {
    if (is_extra(event.frame_type)) {
      state.extras.push_back(window);
      check_extra_overlap(event.node, window, /*added_is_extra=*/true);
    } else if (event.dst == event.node && event.frame_type != FrameType::kRts) {
      // RTS launches are the initiator's private backoff draw — nothing a
      // prior decode announces — so an extra clashing with a (re)sent RTS
      // is an ordinary contention collision, not a theorem violation. The
      // windows the theorem does cover (CTS/DATA/ACK, all implied by the
      // decoded negotiation) stay under the obligation.
      state.negotiated.push_back(window);
      check_extra_overlap(event.node, window, /*added_is_extra=*/false);
    }
  }
  prune(event.node, event.at);
}

void InvariantAuditor::check_extra_overlap(NodeId node, const ArrivalWindow& added,
                                           bool added_is_extra) {
  NodeState& state = node_states_[node];
  const auto& others = added_is_extra ? state.negotiated : state.extras;
  for (const ArrivalWindow& other : others) {
    if (!added.iv.overlaps(other.iv)) continue;
    const ArrivalWindow& extra = added_is_extra ? added : other;
    const ArrivalWindow& negotiated = added_is_extra ? other : added;

    // Scope to the extra sender's knowledge at launch time: it must have
    // decoded this exchange's negotiation AND have had a measured delay
    // to this receiver — otherwise the clash was unpredictable (hidden
    // terminal), which the paper's theorem does not cover.
    // Fault scoping: a clash involving a down/re-learning receiver or an
    // extra launched by a node in an unhealthy interval is expected noise,
    // not a theorem violation.
    if (!healthy(node, added.iv.begin) || !healthy(extra.src, extra.tx_at)) continue;

    const auto sender_it = node_states_.find(extra.src);
    if (sender_it == node_states_.end()) continue;
    const NodeState& sender = sender_it->second;
    const ExchangeKey key{std::min(negotiated.src, negotiated.dst),
                          std::max(negotiated.src, negotiated.dst), negotiated.seq};
    const auto heard_it = sender.heard.find(key);
    const auto knows_it = sender.knows_since.find(node);
    checks_ += 1;
    if (heard_it == sender.heard.end()) continue;
    // The knowledge actually in hand at launch: the latest decode of this
    // exchange's negotiation not after the extra's launch.
    Time decode{};
    bool decoded = false;
    const std::size_t live = std::min(heard_it->second.count, TxRing::kSlots);
    for (std::size_t i = 0; i < live; ++i) {
      const Time t = heard_it->second.at[i];
      if (t > extra.tx_at) continue;
      if (!decoded || t > decode) {
        decode = t;
        decoded = true;
      }
    }
    if (!decoded) continue;
    if (knows_it == sender.knows_since.end() || knows_it->second > extra.tx_at) continue;
    // Attempt scoping: a decode of an earlier, failed attempt predicts
    // nothing about the retry that produced this window.
    const auto attempt_it = attempt_started_.find(key);
    if (attempt_it != attempt_started_.end() && decode < attempt_it->second) continue;

    std::ostringstream detail;
    detail << to_string(extra.type) << " from " << extra.src << " ["
           << extra.iv.begin.to_string() << ", " << extra.iv.end.to_string()
           << ") overlaps negotiated " << to_string(negotiated.type) << " "
           << negotiated.src << "->" << negotiated.dst << " ["
           << negotiated.iv.begin.to_string() << ", " << negotiated.iv.end.to_string()
           << ") at receiver " << node;
    add_violation(Violation{InvariantKind::kExtraOverlap, added.iv.begin, node, extra.type,
                            extra.src, negotiated.dst, extra.seq, detail.str()});
  }
}

void InvariantAuditor::on_neighbor_update(const TraceEvent& event) {
  NodeState& state = node_states_[event.node];
  if (!state.last_rx_valid || state.last_rx.src != event.src ||
      state.last_rx.seq != event.seq || state.last_rx.type != event.frame_type) {
    return;
  }
  // Either endpoint in an unhealthy interval exempts the reading.
  if (!healthy(event.node, event.at) || !healthy(event.src, event.at)) return;
  const auto it = tx_times_.find(
      TxKey{event.src, static_cast<std::uint8_t>(event.frame_type), event.seq});
  if (it == tx_times_.end()) return;

  // (d): the recorded delay must match clamp(true delay, 0, tau_max) for
  // at least one recent launch of this frame — a ring because random
  // backoffs can retransmit within tau_max, making "which launch produced
  // this arrival" ambiguous from the key alone.
  const Duration recorded = Duration::nanoseconds(event.a);
  checks_ += 1;
  bool any_candidate = false;
  bool consistent = false;
  const std::size_t live = std::min(it->second.count, TxRing::kSlots);
  for (std::size_t i = 0; i < live; ++i) {
    const Duration true_delay = state.last_rx.iv.begin - it->second.at[i];
    if (true_delay.is_negative()) continue;
    any_candidate = true;
    const Duration clamped = std::clamp(true_delay, Duration::zero(), config_.tau_max);
    const Duration error =
        recorded > clamped ? recorded - clamped : clamped - recorded;
    if (error <= config_.sync_tolerance) {
      consistent = true;
      break;
    }
  }
  if (any_candidate && !consistent) {
    std::ostringstream detail;
    detail << "recorded delay " << recorded.to_string() << " for neighbor " << event.src
           << " matches no recent launch within " << config_.sync_tolerance.to_string();
    add_violation(Violation{InvariantKind::kNeighborDelayDrift, event.at, event.node,
                            event.frame_type, event.src, event.dst, event.seq,
                            detail.str()});
  }
}

bool InvariantAuditor::routes_settled(Time at) const {
  return !any_route_update_ || last_route_update_ + config_.route_grace <= at;
}

void InvariantAuditor::on_relay_originate(const TraceEvent& event) {
  Flight flight{};
  flight.origin_at = event.at;
  flight.advertised_hops = event.b > 0 ? static_cast<std::uint32_t>(event.b) : 0;
  flight.visited.push_back(event.node);
  flights_[event.seq] = std::move(flight);
  prune_flights(event.at);
}

void InvariantAuditor::on_relay_forward(const TraceEvent& event) {
  const auto it = flights_.find(event.seq);
  if (it == flights_.end()) return;  // originated before attach, or pruned
  Flight& flight = it->second;
  const bool revisit =
      std::find(flight.visited.begin(), flight.visited.end(), event.node) !=
      flight.visited.end();
  if (!revisit) flight.visited.push_back(event.node);
  // (e): scoped to settled routes and healthy forwarders — a loop during
  // DV re-convergence (or through a rejoining node) is expected churn.
  if (!healthy(event.node, event.at) || !routes_settled(event.at)) return;
  checks_ += 1;
  if (revisit) {
    std::ostringstream detail;
    detail << "packet " << event.seq << " from origin " << event.src
           << " forwarded through node " << event.node << " twice (hop "
           << event.a << ")";
    add_violation(Violation{InvariantKind::kPacketRevisit, event.at, event.node,
                            event.frame_type, event.src, event.dst, event.seq,
                            detail.str()});
  }
}

void InvariantAuditor::on_relay_retry(const TraceEvent& event) {
  // (h): the relay must never spend more than the configured custody
  // budget on one packet. Stateless — the event carries the retry count.
  if (config_.custody_retry_bound == 0) return;
  if (!healthy(event.node, event.at)) return;
  checks_ += 1;
  if (event.a > static_cast<std::int64_t>(config_.custody_retry_bound)) {
    std::ostringstream detail;
    detail << "packet " << event.seq << " at node " << event.node << " reached retry "
           << event.a << ", custody bound is " << config_.custody_retry_bound;
    add_violation(Violation{InvariantKind::kRetryExceedsBound, event.at, event.node,
                            event.frame_type, event.src, event.dst, event.seq,
                            detail.str()});
  }
}

void InvariantAuditor::on_relay_arrive(const TraceEvent& event) {
  // (g): with the reliability layer on, a sink absorbs each e2e id at
  // most once (the seen_ dedup contract). Scoped per sink node: an
  // ACK-loss fork reaching a *different* sink is permitted behavior.
  if (config_.custody_retry_bound > 0 && healthy(event.node, event.at)) {
    const auto seen = sink_arrivals_.find(event.seq);
    checks_ += 1;
    if (seen != sink_arrivals_.end() && seen->second.sink == event.node) {
      std::ostringstream detail;
      detail << "packet " << event.seq << " from origin " << event.src
             << " absorbed by sink " << event.node << " twice (first at "
             << seen->second.at.to_string() << ")";
      add_violation(Violation{InvariantKind::kDuplicateSinkDelivery, event.at, event.node,
                              event.frame_type, event.src, event.dst, event.seq,
                              detail.str()});
    } else if (seen == sink_arrivals_.end()) {
      sink_arrivals_[event.seq] = Arrival{event.node, event.at};
    }
  }
  const auto it = flights_.find(event.seq);
  if (it == flights_.end()) return;
  const Flight flight = it->second;
  flights_.erase(it);
  if (!healthy(event.node, event.at)) return;
  if (flight.advertised_hops == 0) return;  // origin advertised no length
  // (f) holds only when no route changed network-wide during the flight:
  // a mid-flight reroute legitimately lengthens the realized path.
  if (any_route_update_ && last_route_update_ >= flight.origin_at) return;
  checks_ += 1;
  if (event.a > static_cast<std::int64_t>(flight.advertised_hops)) {
    std::ostringstream detail;
    detail << "packet " << event.seq << " arrived after " << event.a
           << " hops, origin " << event.src << " advertised a " << flight.advertised_hops
           << "-hop route";
    add_violation(Violation{InvariantKind::kHopCountExceedsRoute, event.at, event.node,
                            event.frame_type, event.src, event.dst, event.seq,
                            detail.str()});
  }
}

void InvariantAuditor::prune_flights(Time now) {
  // Dropped packets never arrive; shed flights old enough that nothing
  // could still be relaying them (generous multiple of a per-hop cycle).
  const Duration horizon = 256 * (config_.slot_length + config_.tau_max);
  // The arrival ledger grows with every delivery (flights_ self-erases on
  // arrival, sink_arrivals_ does not), so it prunes on its own trigger.
  if (sink_arrivals_.size() > 4096) {
    std::erase_if(sink_arrivals_, [&](const auto& kv) { return kv.second.at + horizon < now; });
  }
  if (flights_.size() <= 4096) return;
  std::erase_if(flights_,
                [&](const auto& kv) { return kv.second.origin_at + horizon < now; });
}

void InvariantAuditor::prune(NodeId node, Time now) {
  NodeState& state = node_states_[node];
  // Arrival windows stop mattering once nothing in flight can still reach
  // back into them; extra plans never reach past a couple of slots beyond
  // the negotiated Ack, so this horizon is generous.
  const Duration horizon = 2 * (config_.slot_length + config_.tau_max);
  while (!state.negotiated.empty() && state.negotiated.front().iv.end + horizon < now) {
    state.negotiated.pop_front();
  }
  while (!state.extras.empty() && state.extras.front().iv.end + horizon < now) {
    state.extras.pop_front();
  }
  // The heard-exchange map only grows; trim it occasionally on long runs.
  if (state.heard.size() > 4096) {
    const Duration heard_horizon = config_.slot_length * 64;
    std::erase_if(state.heard, [&](const auto& kv) {
      const std::size_t live = std::min(kv.second.count, TxRing::kSlots);
      Time latest{};
      for (std::size_t i = 0; i < live; ++i) latest = std::max(latest, kv.second.at[i]);
      return latest + heard_horizon < now;
    });
  }
}

void InvariantAuditor::add_violation(Violation violation) {
  violations_.push_back(std::move(violation));
  if (config_.hard_fail) {
    const Violation& v = violations_.back();
    throw std::runtime_error("invariant violation [" + std::string{to_string(v.kind)} +
                             "] at node " + std::to_string(v.node) + ": " + v.detail);
  }
}

}  // namespace aquamac
