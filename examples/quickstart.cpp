// Quickstart: build a 60-node underwater network, run EW-MAC for 300
// simulated seconds of Poisson traffic, and print the headline metrics.
//
//   ./quickstart [protocol]       (default EW-MAC; try S-FAMA, ROPA, ...)

#include <iostream>
#include <string>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"

int main(int argc, char** argv) {
  using namespace aquamac;

  ScenarioConfig config = paper_default_scenario();
  if (argc > 1) config.mac = mac_kind_from_string(argv[1]);

  std::cout << "aquamac quickstart\n==================\n\n"
            << describe_scenario(config) << "\n";

  const RunStats stats = run_scenario(config);

  std::cout << "Results (" << to_string(config.mac) << ", seed " << config.seed << ")\n"
            << "  offered load      " << stats.offered_load_kbps << " kbps\n"
            << "  throughput        " << stats.throughput_kbps << " kbps (Eq. 3)\n"
            << "  delivery ratio    " << stats.delivery_ratio << "\n"
            << "  packets           " << stats.packets_delivered << " delivered / "
            << stats.packets_offered << " offered\n"
            << "  mean power        " << stats.mean_power_mw << " mW per node\n"
            << "  mean latency      " << stats.mean_latency_s << " s\n"
            << "  handshakes        " << stats.handshake_successes << " ok / "
            << stats.handshake_attempts << " attempts\n"
            << "  extra comms       " << stats.extra_successes << " ok / "
            << stats.extra_attempts << " attempts\n"
            << "  collisions seen   " << stats.rx_collisions << "\n"
            << "  efficiency (E)    " << stats.efficiency_raw << " kbps/mW (Eq. 4)\n";
  return 0;
}
