#pragma once
// Upward next-hop selection (Fig. 1): sensors at greater depth transmit
// to sensors closer to the surface. Candidate sets are computed from the
// deployment ground truth once at build time; per-packet destinations are
// drawn uniformly from a node's uphill candidates, spreading contention
// the way the paper's many-senders evaluation requires. Nodes with no
// shallower in-range neighbor act as sinks and generate no traffic.

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "phy/frame.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace aquamac {

/// Which routing layer feeds next hops to the relay agents in multi-hop
/// mode (docs/routing.md):
///   kGreedy — the original depth-greedy shallowest-neighbor rule,
///             computed from deployment ground truth (baseline);
///   kTree   — static shortest-delay spanning tree built from the
///             NeighborTable delay estimates at traffic start (default);
///   kDv     — the DvRouter distance-vector protocol with piggybacked
///             advertisements and route maintenance under faults.
enum class RoutingKind : std::uint8_t { kGreedy, kTree, kDv };

[[nodiscard]] std::string_view to_string(RoutingKind kind);

class UphillRouter {
 public:
  UphillRouter(const std::vector<Vec3>& positions, double range_m);

  /// Uniformly random uphill candidate; nullopt for sink nodes.
  [[nodiscard]] std::optional<NodeId> pick_destination(NodeId src, Rng& rng) const;

  /// Deterministic greedy next hop: the shallowest in-range neighbor
  /// (multi-hop forwarding toward the surface, Fig. 1).
  [[nodiscard]] std::optional<NodeId> shallowest_candidate(NodeId src) const;

  /// Nodes the filter returns true for are skipped (dead-neighbor
  /// blacklist, ROADMAP 2c, or retry failover exclusion). Greedy routes
  /// stay acyclic under any filter: every hop still strictly decreases
  /// depth. Nullopt when every candidate is blocked.
  using NodeFilter = std::function<bool(NodeId node)>;
  [[nodiscard]] std::optional<NodeId> shallowest_candidate(NodeId src,
                                                           const NodeFilter& blocked) const;

  [[nodiscard]] const std::vector<NodeId>& candidates(NodeId src) const {
    return candidates_.at(src);
  }
  [[nodiscard]] bool is_sink(NodeId node) const { return candidates_.at(node).empty(); }
  [[nodiscard]] std::size_t source_count() const;

 private:
  std::vector<std::vector<NodeId>> candidates_;
  std::vector<double> depths_;
};

}  // namespace aquamac
