// Multi-hop to sink: the full Fig.-1 system — deep sensors originate
// readings that are relayed hop-by-hop toward surface sinks, with the MAC
// protocols below doing the per-hop work. Compares end-to-end delivery,
// hop counts and latency across the paper's protocols.

#include <iostream>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace aquamac;

  ScenarioConfig base = paper_default_scenario();
  base.multi_hop = true;
  base.sink_fraction = 0.08;
  base.deployment.kind = DeploymentKind::kLayeredColumn;
  base.deployment.width_m = 2'000.0;
  base.deployment.length_m = 2'000.0;
  base.deployment.depth_m = 5'000.0;
  base.deployment.layer_spacing_m = 1'000.0;
  base.node_count = 60;
  base.traffic.offered_load_kbps = 0.3;

  std::cout << "aquamac multi-hop example: 60-node column, data relayed to surface sinks\n"
            << "(offered " << base.traffic.offered_load_kbps << " kbps at the origins, "
            << "3 seeds)\n\n";

  Table table{{"protocol", "e2e delivery", "mean hops", "e2e latency s", "MAC tput kbps"}};
  for (MacKind kind : paper_comparison_set()) {
    double delivery = 0.0;
    double hops = 0.0;
    double latency = 0.0;
    double tput = 0.0;
    constexpr unsigned kReps = 3;
    for (unsigned rep = 0; rep < kReps; ++rep) {
      ScenarioConfig config = base;
      config.mac = kind;
      config.seed = 1 + rep;
      const RunStats stats = run_scenario(config);
      delivery += stats.e2e_delivery_ratio;
      hops += stats.mean_hops;
      latency += stats.mean_e2e_latency_s;
      tput += stats.throughput_kbps;
    }
    table.add_row({std::string{to_string(kind)}, format_double(delivery / kReps, 3),
                   format_double(hops / kReps, 2), format_double(latency / kReps, 1),
                   format_double(tput / kReps, 4)});
  }
  table.print(std::cout);

  std::cout << "\nEvery hop of the relay path is one MAC-level exchange: protocols that\n"
               "win the paper's one-hop comparison carry that advantage to end-to-end\n"
               "delivery, and each extra hop adds several slot times of latency.\n";
  return 0;
}
