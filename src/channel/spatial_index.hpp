#pragma once
// Spatial receiver index: a uniform 3-D hash grid over modem positions.
//
// AcousticChannel::start_transmission used to evaluate every attached
// modem per frame — O(N) per send even though the link budget bounds
// useful reach to a cutoff radius R (1.5 km in the paper's range mode).
// This index bins modems into cubic cells of side R, so the candidate
// receiver set for a transmission is the 3x3x3 cell neighbourhood of the
// sender: every modem within Euclidean distance R of the sender is
// guaranteed to be in one of those 27 cells (a conservative superset —
// the channel still applies its exact reach predicate to each candidate).
//
// Determinism contract: candidates() returns modems sorted by attach
// ordinal, i.e. the order of a scan over every attached modem, so
// filtering the candidates with the channel's reach predicate schedules
// the arrivals that scan would, in the same order. The brute-force reach
// oracle in tests/reach_oracle.hpp checks this on every transmission.
//
// Mobility coherence rides on the same position-epoch mechanism the
// PropagationCache uses: each record stores the epoch it was binned at,
// and refresh() re-bins only when the modem's epoch moved on. The channel
// calls refresh() from AcousticModem::set_position, so a drifting node is
// re-binned before any subsequent transmission can query the grid.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phy/modem.hpp"
#include "util/cell_grid.hpp"
#include "util/vec3.hpp"

namespace aquamac {

class SpatialReceiverIndex {
 public:
  /// `cell_size_m` must cover the channel's max interference radius: the
  /// 27-cell query is a superset of the R-sphere only when cell >= R.
  /// Clamped below at 1 m (a degenerate cutoff must not divide by zero).
  explicit SpatialReceiverIndex(double cell_size_m);

  /// Registers a modem at its current position. Ordinals are assigned in
  /// insertion (= channel attach) order; inserting twice is a logic error.
  void insert(AcousticModem& modem);

  /// Re-bins `modem` iff its position epoch changed since the last
  /// binning. O(1) amortized; a no-op for unknown modems (position
  /// updates before attach).
  void refresh(const AcousticModem& modem);

  /// Collects every indexed modem within `cell_size_m` of `center` (plus
  /// conservative extras from the same cells) into `out`, sorted by
  /// attach ordinal. `out` and `scratch` are cleared first and reused
  /// across calls; the caller owns both so concurrent readers (the
  /// sharded engine queries from several shard threads) never share
  /// mutable workspace through the index.
  void candidates(const Vec3& center, std::vector<AcousticModem*>& out,
                  std::vector<std::size_t>& scratch) const;

  [[nodiscard]] double cell_size_m() const { return cell_size_m_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  /// Number of epoch-triggered re-binnings (mobility diagnostics).
  [[nodiscard]] std::uint64_t rebins() const { return rebins_; }

 private:
  struct Record {
    AcousticModem* modem{nullptr};
    CellKey cell{};
    std::uint64_t epoch{0};
  };

  void bin(std::size_t ordinal, const CellKey& cell);
  void unbin(std::size_t ordinal, const CellKey& cell);

  double cell_size_m_;
  /// Indexed by attach ordinal; records are append-only.
  std::vector<Record> records_;
  std::unordered_map<const AcousticModem*, std::size_t> ordinals_;
  /// Cell -> ordinals of the modems currently binned there.
  CellMap<std::vector<std::size_t>> cells_;
  std::uint64_t rebins_{0};
};

}  // namespace aquamac
