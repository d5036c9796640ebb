#include "phy/energy.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

void EnergyMeter::visit_state(StateArchive& ar) { ar(tx_time_, rx_time_); }

}  // namespace aquamac
