#pragma once
// Uniform cubic cell grid over 3-D positions: the one binning scheme the
// channel's receiver index, the shard planner and the uphill router share.
// Two points at most one cell side apart differ by at most one in every
// key coordinate, so the 3x3x3 neighbourhood of a point's cell holds every
// point within one side of it: a superset callers filter exactly.

#include <cmath>
#include <compare>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/vec3.hpp"

namespace aquamac {

struct CellKey {
  std::int64_t x{0};
  std::int64_t y{0};
  std::int64_t z{0};
  auto operator<=>(const CellKey&) const = default;  ///< lexicographic (x, y, z)
};

struct CellKeyHash {
  std::size_t operator()(const CellKey& key) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::int64_t v : {key.x, key.y, key.z}) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Cell -> payload (typically the indices binned there).
template <typename T>
using CellMap = std::unordered_map<CellKey, T, CellKeyHash>;

[[nodiscard]] inline CellKey key_for(const Vec3& pos, double cell_m) {
  return CellKey{static_cast<std::int64_t>(std::floor(pos.x / cell_m)),
                 static_cast<std::int64_t>(std::floor(pos.y / cell_m)),
                 static_cast<std::int64_t>(std::floor(pos.z / cell_m))};
}

/// Calls `visit(bucket)` for every occupied cell of the 3x3x3
/// neighbourhood around `center`.
template <typename T, typename Visit>
void for_each_bucket_around(const CellMap<T>& cells, const CellKey& center, Visit&& visit) {
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dz = -1; dz <= 1; ++dz) {
        const auto it = cells.find(CellKey{center.x + dx, center.y + dy, center.z + dz});
        if (it != cells.end()) visit(it->second);
      }
    }
  }
}

/// Calls `visit(i, j)` for every i, ascending, and every j (i included)
/// in i's cell neighbourhood: a superset of the pairs within `cell_m`,
/// found in O(N * neighbours). Each occupied cell's neighbourhood is
/// looked up once, so the 27 hash probes are paid per cell, not per point.
template <typename Visit>
void for_each_nearby_pair(const std::vector<Vec3>& positions, double cell_m, Visit&& visit) {
  CellMap<std::uint32_t> ordinals;  // cell -> its index in members
  std::vector<std::vector<std::uint32_t>> members;
  std::vector<std::uint32_t> cell_of(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto [it, fresh] = ordinals.try_emplace(key_for(positions[i], cell_m),
                                                  static_cast<std::uint32_t>(members.size()));
    if (fresh) members.emplace_back();
    members[it->second].push_back(static_cast<std::uint32_t>(i));
    cell_of[i] = it->second;
  }
  // Each list's order comes from the fixed 3x3x3 walk, not the map's.
  std::vector<std::vector<std::uint32_t>> around(members.size());
  for (const auto& [key, cell] : ordinals) {
    auto& out = around[cell];
    for_each_bucket_around(ordinals, key, [&out](std::uint32_t n) { out.push_back(n); });
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (const std::uint32_t n : around[cell_of[i]]) {
      for (const std::uint32_t j : members[n]) visit(i, j);
    }
  }
}

}  // namespace aquamac
