#include "net/relay.hpp"

#include <algorithm>

#include "sim/checkpoint.hpp"

namespace aquamac {

std::string_view to_string(RelayDropPolicy policy) {
  switch (policy) {
    case RelayDropPolicy::kTailDrop: return "tail-drop";
    case RelayDropPolicy::kOldestFirst: return "oldest-first";
  }
  return "?";
}

void RelayCounters::visit_state(StateArchive& ar) {
  for_each_field([&ar](auto, auto& field) { ar(field); }, *this);
}

RelayAgent::RelayAgent(Simulator& sim, MacProtocol& mac, NodeId self, bool is_sink,
                       NextHopFn next_hop, std::uint8_t hop_limit, ReliabilityConfig reliability)
    : sim_{sim},
      mac_{mac},
      self_{self},
      is_sink_{is_sink},
      next_hop_{std::move(next_hop)},
      hop_limit_{hop_limit},
      rel_{reliability} {
  mac_.set_delivery_handler([this](const Frame& frame) { on_delivery(frame); });
  mac_.set_drop_handler(
      [this](NodeId dst, const E2eHeader& e2e) { on_mac_drop(dst, e2e); });
  mac_.set_sent_handler([this](NodeId, const E2eHeader& e2e) { on_mac_sent(e2e); });
}

void RelayAgent::trace_relay(TraceEventKind kind, std::uint64_t e2e_id, NodeId origin,
                             std::int64_t a, std::int64_t b, NodeId dst) const {
  if (trace_ == nullptr) return;
  TraceEvent event{};
  event.kind = kind;
  event.at = sim_.now();
  event.node = self_;
  event.src = origin;
  event.dst = dst;
  event.seq = e2e_id;
  event.a = a;
  event.b = b;
  trace_->record(event);
}

std::size_t RelayAgent::in_backoff_count() const {
  std::size_t n = 0;
  for (const auto& [id, custody] : custody_) {
    if (custody.in_backoff) ++n;
  }
  return n;
}

void RelayAgent::originate(std::uint32_t payload_bits) {
  const auto hop = next_hop_(self_);
  if (!hop) {
    counters_.dropped_no_route += 1;
    return;
  }
  E2eHeader e2e{};
  e2e.origin = self_;
  e2e.final_dst = kBroadcast;  // "any sink" — absorbed by the first sink
  e2e.hop_count = 1;
  e2e.e2e_id = (static_cast<std::uint64_t>(self_) << 32) | next_e2e_id_++;
  e2e.created_at = sim_.now();
  counters_.originated += 1;
  trace_relay(TraceEventKind::kRelayOriginate, e2e.e2e_id, self_, 1,
              advertised_hops_ ? advertised_hops_(self_) : 0);
  admit(e2e, payload_bits, *hop);
}

void RelayAgent::on_delivery(const Frame& frame) {
  if (frame.origin == kNoNode) return;  // single-hop traffic: not ours
  if (is_sink_) {
    if (rel_.enabled()) {
      // A retransmission after a lost hop-level ACK forks a duplicate
      // copy downstream; the sink must absorb each e2e id exactly once.
      if (seen_.contains(frame.e2e_id)) {
        counters_.duplicates_suppressed += 1;
        return;
      }
      seen_.insert(frame.e2e_id);
    }
    counters_.arrived_at_sink += 1;
    counters_.total_e2e_latency += sim_.now() - frame.created_at;
    counters_.total_hops += frame.hop_count;
    const std::uint32_t tree = tree_hops_ ? tree_hops_(frame.origin) : 0;
    if (tree > 0) {
      counters_.total_tree_hops += tree;
      counters_.total_stretch_hops += frame.hop_count;
    }
    trace_relay(TraceEventKind::kRelayArrive, frame.e2e_id, frame.origin, frame.hop_count, 0);
    return;
  }
  // Custody semantics: a node carries each e2e id at most once. This both
  // suppresses duplicate forks and keeps ARQ traffic loop-free.
  if (rel_.enabled() && seen_.contains(frame.e2e_id)) {
    counters_.duplicates_suppressed += 1;
    return;
  }
  forward(frame);
}

void RelayAgent::forward(const Frame& frame) {
  if (frame.hop_count >= hop_limit_) {
    counters_.dropped_hop_limit += 1;
    return;
  }
  const auto hop = next_hop_(self_);
  if (!hop) {
    counters_.dropped_no_route += 1;
    return;
  }
  E2eHeader e2e{};
  e2e.origin = frame.origin;
  e2e.final_dst = frame.final_dst;
  e2e.hop_count = static_cast<std::uint8_t>(frame.hop_count + 1);
  e2e.e2e_id = frame.e2e_id;
  e2e.created_at = frame.created_at;
  counters_.forwarded += 1;
  trace_relay(TraceEventKind::kRelayForward, e2e.e2e_id, e2e.origin, e2e.hop_count,
              advertised_hops_ ? advertised_hops_(self_) : 0);
  admit(e2e, frame.data_bits, *hop);
}

void RelayAgent::admit(const E2eHeader& e2e, std::uint32_t bits, NodeId hop) {
  if (!rel_.enabled()) {
    mac_.enqueue_packet(hop, bits, e2e);
    return;
  }
  if (custody_.contains(e2e.e2e_id)) {
    // seen_ filters re-offers before forward(), so this is unreachable in
    // practice; refuse defensively rather than double-book custody.
    counters_.duplicates_suppressed += 1;
    trace_relay(TraceEventKind::kRelayDeadLetter, e2e.e2e_id, e2e.origin, 0, kReasonDuplicate);
    return;
  }
  if (custody_.size() >= rel_.queue_limit) {
    bool evicted = false;
    if (rel_.drop_policy == RelayDropPolicy::kOldestFirst) {
      // Evict the oldest packet waiting out a backoff: its MAC attempt is
      // over, so dropping it strands no in-flight state. Entries whose
      // packet is still inside the MAC are not evictable.
      const std::map<std::uint64_t, Custody>::const_iterator victim = std::min_element(
          custody_.begin(), custody_.end(), [](const auto& a, const auto& b) {
            if (a.second.in_backoff != b.second.in_backoff) return a.second.in_backoff;
            return a.second.admission < b.second.admission;
          });
      if (victim != custody_.end() && victim->second.in_backoff) {
        dead_letter(victim->first, victim->second.retries, kReasonOverflow);
        evicted = true;
      }
    }
    if (!evicted) {
      // Tail drop (or nothing evictable): the arriving packet is refused.
      counters_.dead_letter_overflow += 1;
      trace_relay(TraceEventKind::kRelayDeadLetter, e2e.e2e_id, e2e.origin, 0, kReasonOverflow);
      return;
    }
  }
  Custody custody{};
  custody.e2e = e2e;
  custody.bits = bits;
  custody.last_dst = hop;
  custody.admission = next_admission_++;
  custody_.emplace(e2e.e2e_id, custody);
  seen_.insert(e2e.e2e_id);
  counters_.queue_highwater =
      std::max<std::uint64_t>(counters_.queue_highwater, custody_.size());
  // The MAC may refuse synchronously (full queue / dead neighbor) and
  // re-enter on_mac_drop, so custody is booked before the enqueue and
  // nothing here touches it afterwards.
  mac_.enqueue_packet(hop, bits, e2e);
}

void RelayAgent::on_mac_drop(NodeId dst, const E2eHeader& e2e) {
  if (e2e.origin == kNoNode) return;  // single-hop traffic: not ours
  if (!rel_.enabled()) {
    counters_.dropped_mac += 1;
    return;
  }
  const auto it = custody_.find(e2e.e2e_id);
  if (it == custody_.end()) return;  // evicted while inside the MAC
  Custody& custody = it->second;
  if (custody.in_backoff) return;  // one MAC attempt at a time
  if (custody.retries >= rel_.max_retries) {
    dead_letter(e2e.e2e_id, custody.retries, kReasonExhausted);
    return;
  }
  custody.retries += 1;
  custody.last_dst = dst;
  custody.in_backoff = true;
  const Duration wait = backoff_for(custody.retries);
  trace_relay(TraceEventKind::kRelayRetry, e2e.e2e_id, custody.e2e.origin, custody.retries,
              wait.count_ns(), dst);
  const std::uint64_t id = e2e.e2e_id;
  const std::uint64_t admission = custody.admission;
  // Scheduled from this node's own lane, so the timer inherits it and the
  // retry replays identically for every shard count.
  sim_.in(wait, [this, id, admission] { on_backoff_fire(id, admission); });
}

void RelayAgent::on_mac_sent(const E2eHeader& e2e) {
  if (!rel_.enabled() || e2e.origin == kNoNode) return;
  custody_.erase(e2e.e2e_id);  // hop acknowledged: custody transfers
}

void RelayAgent::on_backoff_fire(std::uint64_t e2e_id, std::uint64_t admission) {
  const auto it = custody_.find(e2e_id);
  // Stale timer: the entry was released, evicted, or superseded.
  if (it == custody_.end() || it->second.admission != admission || !it->second.in_backoff) {
    return;
  }
  Custody& custody = it->second;
  custody.in_backoff = false;
  std::optional<NodeId> hop = next_hop_(self_);
  bool failover = false;
  if (alt_next_hop_ && (!hop || *hop == custody.last_dst)) {
    // The routing layer still points at the hop that just failed (or at
    // nothing): ask it for the best alternative that avoids the failure.
    if (const auto alt = alt_next_hop_(self_, custody.last_dst);
        alt && *alt != custody.last_dst) {
      hop = alt;
      failover = true;
    }
  }
  if (!hop) {
    dead_letter(e2e_id, custody.retries, kReasonNoRoute);
    return;
  }
  counters_.retransmissions += 1;
  if (failover) counters_.failovers += 1;
  trace_relay(TraceEventKind::kRelayRequeue, e2e_id, custody.e2e.origin, custody.retries,
              failover ? 1 : 0, *hop);
  custody.last_dst = *hop;
  const E2eHeader e2e = custody.e2e;
  const std::uint32_t bits = custody.bits;
  // As in admit(): the enqueue may re-enter on_mac_drop and erase the
  // entry, so it is the last thing this function does.
  mac_.enqueue_packet(*hop, bits, e2e);
}

void RelayAgent::dead_letter(std::uint64_t e2e_id, std::uint32_t retries, std::int64_t reason) {
  switch (reason) {
    case kReasonExhausted: counters_.dead_letter_exhausted += 1; break;
    case kReasonOverflow: counters_.dead_letter_overflow += 1; break;
    case kReasonNoRoute: counters_.dead_letter_no_route += 1; break;
    default: break;
  }
  // The origin is recoverable from the id layout: (origin << 32) | seq.
  const NodeId origin = static_cast<NodeId>(e2e_id >> 32);
  trace_relay(TraceEventKind::kRelayDeadLetter, e2e_id, origin, retries, reason);
  custody_.erase(e2e_id);
}

Duration RelayAgent::backoff_for(std::uint32_t retries) {
  Duration wait = rel_.backoff_base;
  for (std::uint32_t k = 1; k < retries && wait < rel_.backoff_max; ++k) wait = wait * 2;
  wait = std::min(wait, rel_.backoff_max);
  // Seeded jitter desynchronizes neighbors that dropped in the same
  // burst; the stream is forked per node so draws never interleave.
  const double jitter = backoff_rng_ != nullptr ? backoff_rng_->uniform(1.0, 1.5) : 1.0;
  return Duration::from_seconds(wait.to_seconds() * jitter);
}

void RelayAgent::Custody::visit_state(StateArchive& ar) {
  ar(e2e.origin, e2e.final_dst, e2e.hop_count, e2e.created_at, bits, retries, last_dst,
     in_backoff, admission);
}

void RelayAgent::visit_state(StateArchive& ar) {
  ar(next_e2e_id_, counters_);
  // The payload layout branches on the reliability config; loading into
  // an agent configured differently would misparse the stream.
  ar.expect(rel_.enabled(), "relay restore: reliability-enabled mismatch with config");
  if (!rel_.enabled()) return;
  // Pending backoff timers travel only as Custody::in_backoff: resume
  // replays the prefix, so the live EventHandles regenerate on their own.
  ar(next_admission_, custody_, seen_);
  if (ar.loading()) {
    for (auto& [id, custody] : custody_) custody.e2e.e2e_id = id;
  }
}

}  // namespace aquamac
