#include "mac/slotted_mac.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void SlottedMac::visit_state(StateArchive& ar) {
  MacProtocol::visit_state(ar);
  ar.section("slotted", [this](StateArchive& a) { a(quiet_until_); });
}

}  // namespace aquamac
