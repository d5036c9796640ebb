#pragma once
// One-hop (and, for ROPA/CS-MAC, two-hop) neighbor propagation-delay
// tables (§4.3).
//
// EW-MAC's rule: every received packet carries a sending timestamp; the
// synchronized receiver computes the propagation delay as arrival minus
// timestamp and refreshes the entry. Two-hop state is NOT kept by EW-MAC;
// it exists here because the ROPA and CS-MAC baselines require it, and
// the paper charges them for maintaining and transmitting it (§5.2, §5.3).

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "phy/frame.hpp"
#include "util/time.hpp"

namespace aquamac {

class NeighborTable {
 public:
  struct Entry {
    Duration delay{};
    Time updated{};

    void visit_state(StateArchive& ar);
  };

  /// Bits to encode one (id, delay) pair in a maintenance broadcast:
  /// 16-bit id + 32-bit delay, the granularity the 64-bit control frames
  /// of Table 2 imply.
  static constexpr std::uint32_t kBitsPerEntry = 48;

  /// Refreshes `neighbor`'s one-hop delay with the latest sample (§4.3).
  void update(NodeId neighbor, Duration delay, Time now);

  [[nodiscard]] std::optional<Duration> delay_to(NodeId neighbor) const;

  [[nodiscard]] std::size_t size() const { return one_hop_.size(); }
  [[nodiscard]] bool knows(NodeId neighbor) const { return one_hop_.contains(neighbor); }

  /// Largest known one-hop delay; nullopt when the table is empty, so a
  /// caller using it as a tau fallback cannot silently collapse the slot
  /// length to omega.
  [[nodiscard]] std::optional<Duration> max_known_delay() const;

  [[nodiscard]] std::vector<NodeId> neighbor_ids() const;
  /// Iteration order is ascending NodeId — a determinism contract, not an
  /// accident: CS-MAC ships a prefix of this table in its frames, so
  /// which entries ride along must not depend on hash-bucket layout.
  [[nodiscard]] const std::map<NodeId, Entry>& entries() const { return one_hop_; }

  /// When the entry for `neighbor` was last refreshed; nullopt if unknown.
  [[nodiscard]] std::optional<Time> last_updated(NodeId neighbor) const;

  /// Drops entries not refreshed since `horizon` (mobile networks).
  void expire_older_than(Time horizon);

  /// Ages out one-hop entries older than `age` at `now` (and sweeps the
  /// two-hop map the same way); returns the evicted one-hop ids, sorted,
  /// so the MAC can trace each eviction. Unlike expire_older_than this
  /// reports *what* was dropped — a long-dead neighbor's delay must not
  /// be trusted forever, but its eviction must be observable.
  std::vector<NodeId> evict_older_than(Duration age, Time now);

  /// Payload size of a full one-hop table broadcast.
  [[nodiscard]] std::uint32_t one_hop_info_bits() const {
    return static_cast<std::uint32_t>(one_hop_.size()) * kBitsPerEntry;
  }

  /// Checkpoint state: both maps in their (already deterministic)
  /// ascending-id order.
  void visit_state(StateArchive& ar);

  // --- two-hop state (ROPA / CS-MAC only) ----------------------------
  void update_two_hop(NodeId via, NodeId far, Duration delay, Time now);
  [[nodiscard]] std::optional<Duration> two_hop_delay(NodeId via, NodeId far) const;
  [[nodiscard]] std::size_t two_hop_size() const;
  [[nodiscard]] std::uint32_t two_hop_info_bits() const {
    return static_cast<std::uint32_t>(two_hop_size()) * kBitsPerEntry;
  }

 private:
  // Ordered maps: every iteration over these feeds frames (CS-MAC
  // neighbor shipping), traces (eviction events) or scheduling, so the
  // order must be deterministic and platform-independent. The tables are
  // small (~12 entries at paper density); the tree overhead is noise.
  std::map<NodeId, Entry> one_hop_;
  std::map<NodeId, std::map<NodeId, Entry>> two_hop_;
};

}  // namespace aquamac
