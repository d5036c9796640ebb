#pragma once
// Factory mapping protocol names to implementations, applying the
// per-protocol cost-model defaults the paper prescribes (CS-MAC's
// two-hop piggyback on control packets, etc.).

#include <array>
#include <memory>
#include <string_view>

#include "mac/mac_protocol.hpp"

namespace aquamac {

enum class MacKind {
  kEwMac,
  kSFama,
  kRopa,
  kCsMac,
  kCwMac,
  kSlottedAloha,
  kMacaU,  ///< MACA-U (paper ref [10]): unslotted RTS/CTS baseline
};

[[nodiscard]] std::string_view to_string(MacKind kind);

/// Parses "EW-MAC", "S-FAMA", "ROPA", "CS-MAC", "CW-MAC", "S-ALOHA", "MACA-U"
/// (case-sensitive); throws std::invalid_argument on unknown names.
[[nodiscard]] MacKind mac_kind_from_string(std::string_view name);

/// The four protocols of the paper's comparison, in presentation order.
[[nodiscard]] const std::array<MacKind, 4>& paper_comparison_set();

/// Instantiates `kind` on the given modem. `config` is adjusted with the
/// protocol's cost-model defaults (e.g. CS-MAC piggyback bits) unless the
/// caller already set them.
[[nodiscard]] std::unique_ptr<MacProtocol> make_mac(MacKind kind, Simulator& sim,
                                                    AcousticModem& modem,
                                                    NeighborTable& neighbors, MacConfig config,
                                                    Rng rng, Logger log);

}  // namespace aquamac
