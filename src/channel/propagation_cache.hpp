#pragma once
// Pairwise memoization of PropagationModel::compute.
//
// The channel recomputes the full propagation path (spreading + Thorp
// absorption + delay) for every receiver on every frame, but positions
// only change at mobility-update cadence — in static deployments, never.
// This cache keys paths by (sender, receiver) and validates entries
// against each modem's position epoch (bumped by set_position on real
// movement), so static scenarios compute each pair exactly once and
// mobile scenarios recompute a pair only after one of its endpoints
// moved. Cached values are the bit-identical doubles compute() produced,
// so caching can never change simulation results.

#include <atomic>
#include <cstdint>
#include <vector>

#include "channel/propagation.hpp"
#include "phy/modem.hpp"

namespace aquamac {

class PropagationCache {
 public:
  /// `cache_echo` additionally memoizes surface-echo paths (only worth
  /// the second pair table when the channel has echoes enabled).
  PropagationCache(const PropagationModel& model, double freq_khz, bool cache_echo = false)
      : model_{model}, freq_khz_{freq_khz}, cache_echo_{cache_echo} {}

  /// Sizes the pair tables once for modem ids 0..node_count-1. Above
  /// kMaxCachedId + 1 nodes no table is allocated at all and every path
  /// is computed fresh; ids outside the table are always served uncached.
  void size_for(std::size_t node_count);

  /// Direct path from `from` to `to`, memoized per position epochs.
  [[nodiscard]] PropagationModel::Path direct(const AcousticModem& from,
                                              const AcousticModem& to);

  /// First-order surface-bounce path (image-source method), memoized the
  /// same way. `reflection_loss_db` is folded into the cached loss.
  [[nodiscard]] PropagationModel::Path surface_echo(const AcousticModem& from,
                                                    const AcousticModem& to,
                                                    double reflection_loss_db);

  [[nodiscard]] std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Entries in the direct-path table: node_count^2 at or below the
  /// ceiling, 0 above it or before size_for (diagnostics / tests).
  [[nodiscard]] std::size_t table_entries() const { return direct_.size(); }

  /// Flat-table ceiling: (kMaxCachedId+1)^2 entries per table is ~170 MB
  /// at 40 B/entry. Larger networks run uncached; docs/simulator.md
  /// ("Propagation cache") gives the measured reason.
  static constexpr NodeId kMaxCachedId = 2'047;

 private:
  struct Entry {
    std::uint64_t from_epoch{0};  ///< 0 = empty (modem epochs start at 1)
    std::uint64_t to_epoch{0};
    PropagationModel::Path path{};
  };

  template <typename Compute>
  PropagationModel::Path lookup(std::vector<Entry>& table, const AcousticModem& from,
                                const AcousticModem& to, const Compute& compute);

  const PropagationModel& model_;
  double freq_khz_;
  bool cache_echo_;
  std::size_t dim_{0};  ///< tables are dim_ x dim_, indexed [from * dim_ + to]
  std::vector<Entry> direct_;
  std::vector<Entry> echo_;  ///< empty unless cache_echo_
  /// Counters are touched from concurrent shard workers (entry rows are
  /// per-sender and senders are shard-owned, so the *entries* need no
  /// synchronization — only these shared tallies do).
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace aquamac
