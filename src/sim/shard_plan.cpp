#include "sim/shard_plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "util/cell_grid.hpp"

namespace aquamac {

ShardPlan ShardPlan::build(const std::vector<Vec3>& positions, unsigned shards,
                           double cell_size_m) {
  if (shards == 0) throw std::invalid_argument("ShardPlan: shards must be >= 1");
  ShardPlan plan;
  plan.cell_size_m_ = std::max(1.0, cell_size_m);
  plan.shards_ = static_cast<unsigned>(
      std::min<std::size_t>(shards, std::max<std::size_t>(1, positions.size())));
  plan.shard_of_node_.assign(positions.size(), 0);
  if (plan.shards_ == 1) return plan;

  // Sort nodes by (cell, node id): lexicographic cell order yields
  // contiguous spatial slabs; the id tiebreak keeps the order a pure
  // function of the positions.
  std::vector<std::size_t> order(positions.size());
  std::vector<CellKey> cells(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    order[i] = i;
    cells[i] = key_for(positions[i], plan.cell_size_m_);
  }
  std::sort(order.begin(), order.end(), [&cells](std::size_t a, std::size_t b) {
    return std::tie(cells[a], a) < std::tie(cells[b], b);
  });

  // Deal whole cells to shards, advancing once the running count reaches
  // the proportional target; a cell is never split, so co-located nodes
  // always share a shard (they would otherwise pin the lookahead at 0).
  const auto n = positions.size();
  std::uint32_t shard = 0;
  std::size_t assigned = 0;
  for (std::size_t idx = 0; idx < n;) {
    std::size_t end = idx + 1;
    while (end < n && cells[order[end]] == cells[order[idx]]) ++end;
    // Advance to the shard whose quota this cell's start falls into.
    while (shard + 1 < plan.shards_ &&
           assigned * plan.shards_ >= (static_cast<std::size_t>(shard) + 1) * n) {
      ++shard;
    }
    for (std::size_t k = idx; k < end; ++k) plan.shard_of_node_[order[k]] = shard;
    assigned += end - idx;
    idx = end;
  }
  return plan;
}

double ShardPlan::min_cross_shard_distance(const std::vector<Vec3>& positions) const {
  if (positions.size() != shard_of_node_.size()) {
    throw std::invalid_argument("ShardPlan: position count changed since build");
  }
  if (shards_ <= 1) return std::numeric_limits<double>::infinity();

  const double cell = cell_size_m_;
  double best_sq = std::numeric_limits<double>::infinity();
  for_each_nearby_pair(positions, cell, [&](std::size_t i, std::uint32_t j) {
    if (j <= i || shard_of_node_[j] == shard_of_node_[i]) return;
    best_sq = std::min(best_sq, (positions[i] - positions[j]).norm_sq());
  });
  // Any pair closer than one cell side lies within the scanned
  // neighbourhood, so when the scan found nothing nearer, `cell` itself
  // is a correct lower bound on the true minimum.
  const double best = std::sqrt(best_sq);
  return best < cell ? best : cell;
}

}  // namespace aquamac
