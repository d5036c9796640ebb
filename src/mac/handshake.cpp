#include "mac/handshake.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void ScheduleBook::Window::visit_state(StateArchive& ar) {
  ar(neighbor, interval);
  ar.as<std::uint8_t>(kind);
}

void ScheduleBook::visit_state(StateArchive& ar) { ar(windows_); }

}  // namespace aquamac
