#include "net/dv_router.hpp"

#include <utility>

#include "sim/checkpoint.hpp"

namespace aquamac {

DvRouter::DvRouter(NodeId self, bool is_sink) : self_{self}, is_sink_{is_sink} {
  if (is_sink_) {
    install_own_entry();
    refresh_best(false);
  }
}

void DvRouter::install_own_entry() {
  Entry own{};
  own.seq = own_seq_;
  own.cost = Duration::zero();
  own.hops = 0;
  own.via = self_;
  own.valid = true;
  entries_[self_] = own;
}

void DvRouter::bump_own_seq() {
  if (!is_sink_) return;
  own_seq_ += 1;
  install_own_entry();
  // The best route (self at cost zero) is unchanged; no notification.
}

void DvRouter::stamp(Frame& frame) const {
  const Entry* route = best();
  if (route == nullptr) return;  // nothing to advertise
  frame.route_valid = true;
  frame.route_sink = best_sink_;
  frame.route_seq = route->seq;
  frame.route_cost = route->cost;
  frame.route_hops = route->hops;
  frame.route_next_hop = route->via;
}

void DvRouter::observe(const Frame& frame, Duration measured_delay, Time now) {
  if (!frame.route_valid) return;
  const NodeId advertiser = frame.src;
  if (advertiser == self_ || advertiser == kNoNode || advertiser == kBroadcast) return;
  // Split horizon: an ad whose route already runs through us describes a
  // path we are on; adopting it would be an instant two-hop loop.
  if (frame.route_next_hop == self_) return;
  if (frame.route_sink == self_) return;

  const Duration cost = frame.route_cost + route_link_cost(measured_delay);
  const std::uint32_t hops = frame.route_hops + 1;

  Entry& e = entries_[frame.route_sink];
  // Adoption (see the header): current-or-newer sequence AND (improves
  // the route, or refreshes it from the current via). Classic DSDV lets
  // any newer sequence displace the route; damping that to improvements
  // keeps convergence monotone, while the via refresh still carries each
  // sequence wave along settled paths and re-stamps `updated`.
  if (frame.route_seq < e.seq) return;
  const bool refresh = e.valid && e.via == advertiser;
  const bool better = !e.valid || cost < e.cost || (cost == e.cost && advertiser < e.via);
  if (!(better || refresh)) return;

  e.seq = frame.route_seq;
  e.cost = cost;
  e.hops = hops;
  e.via = advertiser;
  e.valid = true;
  e.updated = now;
  refresh_best(true);
}

void DvRouter::neighbor_down(NodeId neighbor) {
  bool touched = false;
  for (auto& [sink, entry] : entries_) {
    if (entry.valid && entry.via == neighbor && sink != self_) {
      entry.valid = false;
      touched = true;
    }
  }
  if (touched) refresh_best(true);
}

void DvRouter::expire_stale(Time cutoff) {
  bool touched = false;
  for (auto& [sink, entry] : entries_) {
    if (sink == self_) continue;
    if (entry.valid && entry.updated < cutoff) {
      entry.valid = false;
      touched = true;
    }
  }
  if (touched) refresh_best(true);
}

void DvRouter::reset_routes() {
  entries_.clear();
  if (is_sink_) {
    own_seq_ += 1;  // rejoin is advertised as strictly fresher state
    install_own_entry();
  }
  refresh_best(false);
}

std::optional<NodeId> DvRouter::next_hop() const {
  if (is_sink_) return std::nullopt;
  const Entry* route = best();
  if (route == nullptr) return std::nullopt;
  return route->via;
}

std::optional<NodeId> DvRouter::next_hop_excluding(NodeId exclude) const {
  if (is_sink_) return std::nullopt;
  // Same (cost, via, sink) tie-break as refresh_best, restricted to
  // routes that do not go through `exclude` — the failover second-best.
  NodeId chosen = kNoNode;
  for (const auto& [sink, entry] : entries_) {
    if (!entry.valid || entry.via == exclude) continue;
    if (chosen == kNoNode) {
      chosen = sink;
      continue;
    }
    const Entry& incumbent = entries_.at(chosen);
    if (entry.cost < incumbent.cost ||
        (entry.cost == incumbent.cost &&
         (entry.via < incumbent.via || (entry.via == incumbent.via && sink < chosen)))) {
      chosen = sink;
    }
  }
  if (chosen == kNoNode) return std::nullopt;
  return entries_.at(chosen).via;
}

const DvRouter::Entry* DvRouter::best() const {
  if (best_sink_ == kNoNode) return nullptr;
  return &entries_.at(best_sink_);
}

void DvRouter::refresh_best(bool notify) {
  // Minimum over valid entries by (cost, via, sink): the same tie-break
  // order RouteTable's Dijkstra realizes, so converged selections match.
  NodeId chosen = kNoNode;
  for (const auto& [sink, entry] : entries_) {
    if (!entry.valid) continue;
    if (chosen == kNoNode) {
      chosen = sink;
      continue;
    }
    const Entry& incumbent = entries_.at(chosen);
    if (entry.cost < incumbent.cost ||
        (entry.cost == incumbent.cost &&
         (entry.via < incumbent.via || (entry.via == incumbent.via && sink < chosen)))) {
      chosen = sink;
    }
  }
  // A pure sequence-number refresh of an otherwise identical route is
  // NOT a change: seq waves propagate on the periodic beacons, while the
  // change hook drives triggered updates (and would storm on every wave
  // otherwise).
  const bool changed =
      chosen != best_sink_ ||
      (chosen != kNoNode && (entries_.at(chosen).via != last_best_.via ||
                             entries_.at(chosen).cost != last_best_.cost ||
                             entries_.at(chosen).hops != last_best_.hops));
  best_sink_ = chosen;
  last_best_ = chosen != kNoNode ? entries_.at(chosen) : Entry{};
  if (changed && notify && on_change_) on_change_();
}

void DvRouter::Entry::visit_state(StateArchive& ar) {
  ar(seq, cost, hops, via, valid, updated);
}

// The change-detection baseline last_best_ is serialized explicitly: it
// equals entries_[best_sink_] only when refresh_best ran after the last
// entry mutation, and a resume must not depend on that invariant.
void DvRouter::visit_state(StateArchive& ar) { ar(own_seq_, best_sink_, entries_, last_best_); }

}  // namespace aquamac
