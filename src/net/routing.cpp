#include "net/routing.hpp"

#include <algorithm>

#include "util/cell_grid.hpp"

namespace aquamac {

std::string_view to_string(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kGreedy: return "greedy";
    case RoutingKind::kTree: return "tree";
    case RoutingKind::kDv: return "dv";
  }
  return "?";
}

UphillRouter::UphillRouter(const std::vector<Vec3>& positions, double range_m) {
  candidates_.resize(positions.size());
  depths_.reserve(positions.size());
  for (const Vec3& p : positions) depths_.push_back(p.z);
  // Cells a hair wider than the range, so rounding in the key division
  // never puts an in-range pair two cells apart. The outer index j
  // ascends, so candidate lists fill in ascending id order: the order
  // pick_destination's draws and shallowest_candidate's tie-breaks use.
  const double cell = std::max(range_m, 1.0) * (1.0 + 1e-9);
  for_each_nearby_pair(positions, cell, [&](std::size_t j, std::uint32_t i) {
    if (positions[j].z < positions[i].z && positions[i].distance_to(positions[j]) <= range_m) {
      candidates_[i].push_back(static_cast<NodeId>(j));
    }
  });
}

std::optional<NodeId> UphillRouter::pick_destination(NodeId src, Rng& rng) const {
  const auto& options = candidates_.at(src);
  if (options.empty()) return std::nullopt;
  return options[rng.below(options.size())];
}

std::optional<NodeId> UphillRouter::shallowest_candidate(NodeId src) const {
  const auto& options = candidates_.at(src);
  if (options.empty()) return std::nullopt;
  NodeId best = options.front();
  for (const NodeId candidate : options) {
    if (depths_[candidate] < depths_[best]) best = candidate;
  }
  return best;
}

std::optional<NodeId> UphillRouter::shallowest_candidate(NodeId src,
                                                         const NodeFilter& blocked) const {
  const auto& options = candidates_.at(src);
  std::optional<NodeId> best;
  for (const NodeId candidate : options) {
    if (blocked && blocked(candidate)) continue;
    if (!best || depths_[candidate] < depths_[*best]) best = candidate;
  }
  return best;
}

std::size_t UphillRouter::source_count() const {
  std::size_t n = 0;
  for (const auto& options : candidates_) {
    if (!options.empty()) ++n;
  }
  return n;
}

}  // namespace aquamac
