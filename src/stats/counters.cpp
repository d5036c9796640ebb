#include "stats/counters.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

std::uint64_t MacCounters::control_bits_sent() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kFrameTypeCount; ++i) {
    const auto type = static_cast<FrameType>(i);
    if (is_control(type) && type != FrameType::kMaint && type != FrameType::kHello) {
      sum += bits_sent[i];
    }
  }
  return sum;
}

void MacCounters::visit_state(StateArchive& ar) {
  for_each_field([&ar](auto, auto& field) { ar(field); }, *this);
}

}  // namespace aquamac
