#pragma once
// Energy accounting for an acoustic modem.
//
// The paper's Fig. 9 power metric counts "the power for waiting,
// transmitting, and receiving" (§5.2). We meter exactly those three
// states: transmit-active time, receive-active time (a packet is actually
// arriving), and the remainder as listening/idle ("the antenna remains in
// the receive state when it is not transmitting", §3.2). Default power
// draws are WHOI-micromodem-class constants (DESIGN.md §5 substitution).

#include <algorithm>

#include "util/time.hpp"

namespace aquamac {

class StateArchive;

struct PowerProfile {
  double tx_w{2.0};    ///< transmit electrical power, watts
  double rx_w{0.75};   ///< active-receive power, watts
  double idle_w{0.05}; ///< listening power, watts (commercial acoustic
                       ///< modems draw 10s-100s of mW while listening;
                       ///< this makes waiting a real cost, per §5.2)
};

class EnergyMeter {
 public:
  explicit EnergyMeter(PowerProfile profile = {}) : profile_{profile} {}

  void add_tx_time(Duration d) { tx_time_ += d; }
  void add_rx_time(Duration d) { rx_time_ += d; }

  [[nodiscard]] Duration tx_time() const { return tx_time_; }
  [[nodiscard]] Duration rx_time() const { return rx_time_; }

  /// Checkpoint state: the accumulated active times.
  void visit_state(StateArchive& ar);

  /// Total energy in joules over an elapsed wall of simulated time; time
  /// not spent transmitting or actively receiving is billed at idle_w.
  [[nodiscard]] double energy_joules(Duration elapsed) const {
    const double tx_s = tx_time_.to_seconds();
    const double rx_s = rx_time_.to_seconds();
    const double idle_s = std::max(0.0, elapsed.to_seconds() - tx_s - rx_s);
    return profile_.tx_w * tx_s + profile_.rx_w * rx_s + profile_.idle_w * idle_s;
  }

  /// Mean power in watts over `elapsed`.
  [[nodiscard]] double mean_power_w(Duration elapsed) const {
    const double s = elapsed.to_seconds();
    return s > 0.0 ? energy_joules(elapsed) / s : 0.0;
  }

  [[nodiscard]] const PowerProfile& profile() const { return profile_; }

 private:
  PowerProfile profile_;  // lint: ckpt-skip(scenario-derived, rebuilt by resume)
  Duration tx_time_{};
  Duration rx_time_{};
};

}  // namespace aquamac
