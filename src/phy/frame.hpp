#pragma once
// The over-the-air frame. One struct serves every protocol: the paper's
// §3.1 fixes all control packets (RTS, CTS, Ack, and the extra EXR/EXC
// variants) at the same size and requires a sending timestamp in every
// packet; negotiation packets additionally piggyback the pair propagation
// delay (§4.2, Fig. 4) so overhearers can schedule extra communication.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace aquamac {

/// Node identifier. Dense indices assigned by the Network at build time.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;
inline constexpr NodeId kBroadcast = 0xFFFFFFFEu;

/// Encoded size of one piggybacked DV route advertisement (sink id 16,
/// sequence 32, quantized cost 32, hop count 8, next-hop id 16 bits):
/// charged to the overhead ledger per route-carrying frame (ROADMAP 2a).
inline constexpr std::uint32_t kRouteAdBits = 104;

enum class FrameType : std::uint8_t {
  kHello,   ///< deployment-time neighbor discovery (§4.3)
  kRts,
  kCts,
  kData,
  kAck,
  kExr,     ///< extra RTS (EW-MAC §4.2)
  kExc,     ///< extra CTS
  kExData,
  kExAck,
  kRta,     ///< ROPA's reverse "request to append"
  kMaint,   ///< periodic two-hop maintenance broadcast (ROPA / CS-MAC)
};

[[nodiscard]] std::string_view to_string(FrameType type);

class StateArchive;

/// One entry of a broadcast neighbor table (kMaint frames).
struct NeighborInfo {
  NodeId id{kNoNode};
  Duration delay{};

  void visit_state(StateArchive& ar);
};

[[nodiscard]] constexpr bool is_control(FrameType type) {
  return type != FrameType::kData && type != FrameType::kExData;
}
[[nodiscard]] constexpr bool is_extra(FrameType type) {
  return type == FrameType::kExr || type == FrameType::kExc ||
         type == FrameType::kExData || type == FrameType::kExAck;
}

struct Frame {
  FrameType type{FrameType::kHello};
  NodeId src{kNoNode};
  NodeId dst{kNoNode};  ///< kBroadcast for Hello/Maint

  /// Airtime-determining size. Control frames use the scenario's control
  /// size (64 bits in Table 2); data frames the payload size.
  std::uint32_t size_bits{0};

  /// Handshake correlator: RTS/CTS/DATA/ACK of one exchange share it.
  std::uint64_t seq{0};

  /// Sending timestamp (appended to every packet, §4.3); receivers derive
  /// one-hop propagation delay as arrival time minus this.
  Time sent_at{};

  /// Random priority value carried by RTS (§3.1); receivers pick max.
  double priority_rp{0.0};

  /// Piggybacked propagation delay between the negotiating pair (the CTS
  /// of Fig. 4 carries tau_{j,k}); zero when not applicable.
  Duration pair_delay{};

  /// Announced airtime of the upcoming DATA of this handshake (carried by
  /// RTS/CTS so overhearers can compute the Eq.-5 Ack slot).
  Duration data_duration{};

  /// Payload bits delivered to the upper layer (DATA/EXDATA only).
  std::uint32_t data_bits{0};

  // --- end-to-end header (multi-hop mode, §3.1/Fig. 1) ----------------
  /// Originating sensor and final destination (surface sink); kNoNode
  /// when the packet is single-hop (the paper's MAC-level evaluation).
  NodeId origin{kNoNode};
  NodeId final_dst{kNoNode};
  std::uint8_t hop_count{0};
  /// Network-layer id assigned at the origin; constant across hops.
  std::uint64_t e2e_id{0};
  /// Origin enqueue time, for end-to-end latency.
  Time created_at{};

  // --- piggybacked route advertisement (DvRouter, docs/routing.md) ----
  /// Every frame a DV-routed node transmits carries its current best
  /// convergecast route; receivers fold it into their tables together
  /// with the frame's measured one-hop delay. route_next_hop is the
  /// advertiser's own next hop, which receivers use for split-horizon
  /// filtering. route_valid = false when the sender has no route (or the
  /// scenario does not run the DV protocol at all).
  bool route_valid{false};
  NodeId route_sink{kNoNode};
  std::uint32_t route_seq{0};
  Duration route_cost{};
  std::uint32_t route_hops{0};
  NodeId route_next_hop{kNoNode};

  /// kMaint payload: the sender's one-hop table, from which receivers
  /// build two-hop state (ROPA / CS-MAC). The encoded size is already
  /// reflected in size_bits; the pointer is the simulator-level content.
  std::shared_ptr<const std::vector<NeighborInfo>> neighbor_info{};

  [[nodiscard]] bool control() const { return is_control(type); }
  [[nodiscard]] bool extra() const { return is_extra(type); }
  [[nodiscard]] std::string to_string() const;

  /// Checkpoint state, including the neighbor_info payload (as a has-bit
  /// plus entries; restored frames own a fresh copy).
  void visit_state(StateArchive& ar);
};

}  // namespace aquamac
