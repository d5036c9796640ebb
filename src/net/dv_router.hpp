#pragma once
// Deterministic distance-vector convergecast routing (docs/routing.md).
//
// One DvRouter per node keeps a per-sink table of sequence-numbered
// routes, DSDV-style. Advertisements are not separate packets: every
// outgoing frame is stamped with the node's current best route
// (MacProtocol's frame-stamp hook), so HELLOs, handshake control frames,
// data and the PR 4 dead-neighbor probes all carry routing state for
// free. Receivers ingest the ad together with the measured one-hop delay
// of the frame that carried it.
//
// Determinism: state lives in ordered maps, all updates happen inside
// the owning node's simulation lane, and the adoption rule is a pure
// function of the observed ad stream. An ad is adopted when its sequence
// is current or newer AND it either improves the route (strictly lower
// cost; equal cost and lower advertiser id) or refreshes it in place
// from the current next hop. Rejecting newer-but-worse ads from other
// neighbors is the damping that makes convergence monotone (classic DSDV
// adopts them and oscillates while a sequence wave spreads); the via
// refresh still carries each sequence wave down every settled path, and
// expire_stale reclaims routes whose via went silent, so staleness still
// drains in partitioned components. On a static fault-free deployment the
// converged tables therefore equal the RouteTable tree entry-for-entry
// (routing_differential_test).

#include <functional>
#include <map>
#include <optional>

#include "net/route_table.hpp"
#include "phy/frame.hpp"
#include "util/time.hpp"

namespace aquamac {

class StateArchive;

class DvRouter {
 public:
  /// One sequence-numbered route toward `sink` (the map key).
  struct Entry {
    std::uint32_t seq{0};
    Duration cost{};
    std::uint32_t hops{0};
    NodeId via{kNoNode};  ///< next hop (self for a sink's own entry)
    bool valid{false};    ///< false: invalidated, awaiting a fresher ad
    Time updated{};       ///< last adoption/refresh (staleness expiry)

    void visit_state(StateArchive& ar);
  };

  DvRouter(NodeId self, bool is_sink);

  /// Fired whenever the best route changes (validity, sink, via or cost):
  /// the Network wires this to the kRouteUpdate trace event and to the
  /// DSDV triggered-update broadcast.
  using RouteChangeHook = std::function<void()>;
  void set_route_change_hook(RouteChangeHook hook) { on_change_ = std::move(hook); }

  /// Stamps the outgoing frame's route-ad fields with the current best
  /// route (sinks advertise themselves at cost zero). Frames keep
  /// route_valid = false when the node has no route to advertise.
  void stamp(Frame& frame) const;

  /// Ingests the ad piggybacked on a received frame; `measured_delay` is
  /// the receiver's (clamped) one-hop delay estimate to frame.src.
  void observe(const Frame& frame, Duration measured_delay, Time now);

  /// Invalidates every route through a neighbor declared dead or evicted.
  void neighbor_down(NodeId neighbor);

  /// Invalidates routes not refreshed since `cutoff` (run per beacon
  /// round): a via that stopped advertising — silently partitioned, or
  /// itself routeless — must not be trusted forever. On settled paths the
  /// via's sequence-wave refresh re-stamps the entry every round, so
  /// healthy routes never expire.
  void expire_stale(Time cutoff);

  /// Outage-recovery amnesia (paired with MacProtocol::reset_mac_state):
  /// forgets every learned route; a sink re-installs its own entry under
  /// a bumped sequence number so rejoining is advertised as fresh state.
  void reset_routes();

  /// Sinks bump their sequence each beacon round; the rising number is
  /// what flushes stale routes out of the network after faults.
  void bump_own_seq();

  /// Next hop of the best route; nullopt for sinks and routeless nodes.
  [[nodiscard]] std::optional<NodeId> next_hop() const;
  /// Best next hop whose route does not go through `exclude` (the relay
  /// failover alternate after MAC drops toward `exclude`); nullopt when
  /// every valid route uses it.
  [[nodiscard]] std::optional<NodeId> next_hop_excluding(NodeId exclude) const;
  /// The best route itself; nullptr when no valid route exists.
  [[nodiscard]] const Entry* best() const;
  [[nodiscard]] NodeId best_sink() const { return best_sink_; }
  [[nodiscard]] bool is_sink() const { return is_sink_; }
  [[nodiscard]] const std::map<NodeId, Entry>& entries() const { return entries_; }

  void visit_state(StateArchive& ar);

 private:
  void install_own_entry();
  void refresh_best(bool notify);

  NodeId self_;    // lint: ckpt-skip(config, fixed per node)
  bool is_sink_;   // lint: ckpt-skip(config, fixed per node)
  std::uint32_t own_seq_{1};
  std::map<NodeId, Entry> entries_;  ///< sink id -> route
  NodeId best_sink_{kNoNode};        ///< cached selection; kNoNode = none
  Entry last_best_{};                ///< change detection baseline
  RouteChangeHook on_change_{};  // lint: ckpt-skip(callback wiring, rebound on construction)
};

}  // namespace aquamac
