#include "mac/mac_factory.hpp"

#include <array>
#include <stdexcept>
#include <string>

#include "mac/aloha/slotted_aloha.hpp"
#include "mac/csmac/cs_mac.hpp"
#include "mac/cwmac/cw_mac.hpp"
#include "mac/ewmac/ew_mac.hpp"
#include "mac/macau/maca_u.hpp"
#include "mac/ropa/ropa.hpp"
#include "mac/sfama/s_fama.hpp"

namespace aquamac {

std::string_view to_string(MacKind kind) {
  switch (kind) {
    case MacKind::kEwMac: return "EW-MAC";
    case MacKind::kSFama: return "S-FAMA";
    case MacKind::kRopa: return "ROPA";
    case MacKind::kCsMac: return "CS-MAC";
    case MacKind::kCwMac: return "CW-MAC";
    case MacKind::kSlottedAloha: return "S-ALOHA";
    case MacKind::kMacaU: return "MACA-U";
  }
  return "?";
}

MacKind mac_kind_from_string(std::string_view name) {
  for (int i = 0; to_string(static_cast<MacKind>(i)) != "?"; ++i) {
    if (to_string(static_cast<MacKind>(i)) == name) return static_cast<MacKind>(i);
  }
  throw std::invalid_argument("unknown MAC protocol: " + std::string{name});
}

const std::array<MacKind, 4>& paper_comparison_set() {
  static const std::array<MacKind, 4> kSet{MacKind::kSFama, MacKind::kRopa, MacKind::kCsMac,
                                           MacKind::kEwMac};
  return kSet;
}

std::unique_ptr<MacProtocol> make_mac(MacKind kind, Simulator& sim, AcousticModem& modem,
                                      NeighborTable& neighbors, MacConfig config, Rng rng,
                                      Logger log) {
  // Per-protocol neighbor-information cost models (§5.3, Fig. 10): the
  // airtime of every control packet stays at the Table-2 64 bits; the
  // information each protocol's control packets additionally carry is
  // charged to the overhead counters via control_info_*.
  switch (kind) {
    case MacKind::kEwMac:
      // Timestamp + pair delay + listening-time info on every control
      // packet (§4.3) — one-hop state only.
      if (config.control_info_base_bits == 0) config.control_info_base_bits = 128;
      return std::make_unique<EwMac>(sim, modem, neighbors, config, rng, std::move(log));
    case MacKind::kSFama:
      // The overhead baseline: no extra information at all.
      return std::make_unique<SFama>(sim, modem, neighbors, config, rng, std::move(log));
    case MacKind::kRopa:
      // Timestamp + pair delay, as EW-MAC, but ROPA negotiates less
      // often overall ("less chance for communication", §5.3).
      if (config.control_info_base_bits == 0) config.control_info_base_bits = 48;
      return std::make_unique<Ropa>(sim, modem, neighbors, config, rng, std::move(log));
    case MacKind::kCsMac:
      // Two-hop announcements ride physically on every negotiation packet
      // (two 48-bit entries lengthen the control frame and its slot), and
      // a density-scaled surcharge accounts for the rest of the shipped
      // state (§5.3).
      if (config.piggyback_bits == 0) config.piggyback_bits = 96;
      if (config.control_info_base_bits == 0) {
        config.control_info_base_bits = 24;
        config.control_info_per_entry_bits = 24;
      }
      if (config.two_hop_entries_shipped == 0) config.two_hop_entries_shipped = 4;
      return std::make_unique<CsMac>(sim, modem, neighbors, config, rng, std::move(log));
    case MacKind::kCwMac:
      return std::make_unique<CwMac>(sim, modem, neighbors, config, rng, std::move(log));
    case MacKind::kSlottedAloha:
      return std::make_unique<SlottedAloha>(sim, modem, neighbors, config, rng, std::move(log));
    case MacKind::kMacaU:
      return std::make_unique<MacaU>(sim, modem, neighbors, config, rng, std::move(log));
  }
  throw std::invalid_argument("unhandled MacKind");
}

}  // namespace aquamac
