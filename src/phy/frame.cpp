#include "phy/frame.hpp"

#include <sstream>
#include <utility>

#include "sim/checkpoint.hpp"

namespace aquamac {

std::string_view to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kRts: return "RTS";
    case FrameType::kCts: return "CTS";
    case FrameType::kData: return "DATA";
    case FrameType::kAck: return "ACK";
    case FrameType::kExr: return "EXR";
    case FrameType::kExc: return "EXC";
    case FrameType::kExData: return "EXDATA";
    case FrameType::kExAck: return "EXACK";
    case FrameType::kRta: return "RTA";
    case FrameType::kMaint: return "MAINT";
  }
  return "?";
}

std::string Frame::to_string() const {
  std::ostringstream os;
  os << aquamac::to_string(type) << " " << src << "->";
  if (dst == kBroadcast) {
    os << "*";
  } else {
    os << dst;
  }
  os << " seq=" << seq << " bits=" << size_bits << " " << sent_at.to_string();
  return os.str();
}

void NeighborInfo::visit_state(StateArchive& ar) { ar(id, delay); }

void Frame::visit_state(StateArchive& ar) {
  ar.as<std::uint8_t>(type);
  ar(src, dst, size_bits, seq, sent_at, priority_rp, pair_delay, data_duration, data_bits,
     origin, final_dst, hop_count, e2e_id, created_at, route_valid, route_sink, route_seq,
     route_cost, route_hops, route_next_hop);
  std::optional<std::vector<NeighborInfo>> entries;
  if (neighbor_info != nullptr) entries = *neighbor_info;
  ar(entries);
  if (ar.loading()) {
    neighbor_info = entries ? std::make_shared<const std::vector<NeighborInfo>>(
                                  std::move(*entries))
                            : nullptr;
  }
}

}  // namespace aquamac
