#include "mac/slotted_mac.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "sim/checkpoint.hpp"

namespace aquamac {

void SlottedMac::visit_state(StateArchive& ar) {
  MacProtocol::visit_state(ar);
  ar.section("slotted", [this](StateArchive& a) { a(quiet_until_); });
}

void SlottedMac::visit_protocol(StateArchive& ar,
                                const std::function<void(StateArchive&)>& own) {
  SlottedMac::visit_state(ar);
  std::string section{name()};
  std::transform(section.begin(), section.end(), section.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  ar.section(section, own);
}

}  // namespace aquamac
