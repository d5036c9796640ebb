#pragma once
// Per-node counters from which every figure's metric is derived.
//
// Byte/frame counts are classified by frame type so the Fig. 10 overhead
// ratio (control + maintenance + retransmission cost relative to S-FAMA)
// is computed from first principles rather than estimated.

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>

#include "phy/frame.hpp"
#include "util/time.hpp"

namespace aquamac {

class StateArchive;

inline constexpr std::size_t kFrameTypeCount = 11;

[[nodiscard]] constexpr std::size_t frame_type_index(FrameType t) {
  return static_cast<std::size_t>(t);
}

/// Merge rule of a counter in a field list: summed across nodes, or the
/// maximum (the last delivery time, the worst queue occupancy).
inline constexpr struct SumTag {} kSum{};
inline constexpr struct MaxTag {} kMax{};

/// Folds `from` into `into` field by field, following
/// Counters::for_each_field and each field's merge rule.
template <class Counters>
Counters& merge_counters(Counters& into, const Counters& from) {
  Counters::for_each_field(
      [](auto rule, auto& field, const auto& other) {
        if constexpr (std::is_same_v<decltype(rule), MaxTag>) {
          field = std::max(field, other);
        } else {
          field += other;
        }
      },
      into, from);
  return into;
}

struct MacCounters {
  // --- transmit side, by frame class --------------------------------
  std::array<std::uint64_t, kFrameTypeCount> frames_sent{};
  std::array<std::uint64_t, kFrameTypeCount> bits_sent{};
  std::uint64_t retransmitted_frames{0};
  std::uint64_t retransmitted_bits{0};
  /// Neighbor-information surcharge (Fig. 10 accounting): the bits of
  /// timestamp/delay/two-hop state a protocol's control packets carry on
  /// top of the bare 64-bit Table-2 frame. Counted per control frame
  /// from MacConfig::control_info_* (§5.3's "carrying more information
  /// as piggyback").
  std::uint64_t piggyback_info_bits{0};

  // --- receive side ---------------------------------------------------
  std::array<std::uint64_t, kFrameTypeCount> frames_received{};
  std::uint64_t rx_collisions{0};

  // --- upper-layer data accounting (Eq. 2) ----------------------------
  std::uint64_t packets_offered{0};
  std::uint64_t bits_offered{0};
  std::uint64_t packets_delivered{0};   ///< DATA/EXDATA received at dst
  std::uint64_t bits_delivered{0};
  std::uint64_t packets_sent_ok{0};     ///< acked at the sender
  std::uint64_t packets_dropped{0};     ///< retry budget exhausted
  std::uint64_t duplicate_deliveries{0};///< retransmissions after lost Acks

  // --- handshake outcomes ----------------------------------------------
  std::uint64_t handshake_attempts{0};
  std::uint64_t handshake_successes{0};
  std::uint64_t contention_losses{0};
  std::uint64_t extra_attempts{0};      ///< EW-MAC EXR / ROPA RTA / CS-MAC steals
  std::uint64_t extra_successes{0};

  // --- latency ----------------------------------------------------------
  Duration total_delivery_latency{};    ///< enqueue -> acked at sender, summed
  std::uint64_t latency_samples{0};     ///< packets contributing to the sum
  Time last_delivery_time{};            ///< Fig. 8 execution time input

  void count_sent(const Frame& frame) {
    frames_sent[frame_type_index(frame.type)] += 1;
    bits_sent[frame_type_index(frame.type)] += frame.size_bits;
  }
  void count_received(const Frame& frame) {
    frames_received[frame_type_index(frame.type)] += 1;
  }

  [[nodiscard]] std::uint64_t total_bits_sent() const {
    std::uint64_t sum = 0;
    for (auto b : bits_sent) sum += b;
    return sum;
  }
  [[nodiscard]] std::uint64_t control_bits_sent() const;
  [[nodiscard]] std::uint64_t maintenance_bits_sent() const {
    return bits_sent[frame_type_index(FrameType::kMaint)] +
           bits_sent[frame_type_index(FrameType::kHello)];
  }

  MacCounters& operator+=(const MacCounters& o) { return merge_counters(*this, o); }

  /// Checkpoint state: every field, in field-list order.
  void visit_state(StateArchive& ar);

  /// The one field list: `fn(rule, c.field...)` per field, across any
  /// number of MacCounters. Drives merging and checkpointing; the
  /// per-frame-type arrays interleave (sent, bits, received) per type.
  template <class Fn, class... C>
  static void for_each_field(Fn&& fn, C&... c) {
    for (std::size_t i = 0; i < kFrameTypeCount; ++i) {
      fn(kSum, c.frames_sent[i]...);
      fn(kSum, c.bits_sent[i]...);
      fn(kSum, c.frames_received[i]...);
    }
    fn(kSum, c.retransmitted_frames...);
    fn(kSum, c.retransmitted_bits...);
    fn(kSum, c.piggyback_info_bits...);
    fn(kSum, c.rx_collisions...);
    fn(kSum, c.packets_offered...);
    fn(kSum, c.bits_offered...);
    fn(kSum, c.packets_delivered...);
    fn(kSum, c.bits_delivered...);
    fn(kSum, c.packets_sent_ok...);
    fn(kSum, c.packets_dropped...);
    fn(kSum, c.duplicate_deliveries...);
    fn(kSum, c.handshake_attempts...);
    fn(kSum, c.handshake_successes...);
    fn(kSum, c.contention_losses...);
    fn(kSum, c.extra_attempts...);
    fn(kSum, c.extra_successes...);
    fn(kSum, c.total_delivery_latency...);
    fn(kSum, c.latency_samples...);
    fn(kMax, c.last_delivery_time...);
  }
};

}  // namespace aquamac
