// End-to-end multi-hop routing comparison (docs/routing.md): greedy
// depth rule vs static shortest-delay tree vs distance-vector, with the
// InvariantAuditor attached in hard-fail mode to every run (including
// the new packet-revisit / hop-count routing invariants).
//
// Two experiments:
//  - grid: fault-free static N=200 jittered grid. Reports delivery
//    ratio, hop stretch vs the tree, mean hops, end-to-end and per-hop
//    latency, and the routing-layer drop breakdown per routing kind.
//    Gate: DV delivery ratio >= 0.95 (exit 1 otherwise).
//  - outage: a sparse two-wide relay corridor under a Poisson relay
//    outage plan. The greedy rule forwards to a statically chosen
//    shallowest neighbor and keeps feeding it through its outages; DV
//    declares the relay dead and reroutes through the layer sibling.
//    Gate: DV delivery ratio strictly above greedy (exit 1 otherwise).
//
// Emits BENCH_multihop.json (schema aquamac-bench-multihop-v1; render
// with scripts/plot_results.py).
//
//   AQUAMAC_FAST=1 ./bench_multihop   # 1 replication, smaller grid

#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace aquamac;

const std::vector<RoutingKind> kRoutings{RoutingKind::kGreedy, RoutingKind::kTree,
                                         RoutingKind::kDv};

/// Fault-free static grid: the paper's Fig. 1 convergecast shape at
/// scale. Mobility is off — the delivery gate reflects routing quality,
/// not staleness churn — and the per-node load is kept light so MAC
/// saturation does not mask routing differences.
[[nodiscard]] ScenarioConfig grid_scenario(std::size_t nodes, std::uint64_t seed,
                                           bool fast) {
  ScenarioConfig config = grid3d_scenario(nodes, seed);
  config.enable_mobility = false;
  config.multi_hop = true;
  // Long horizon: per-hop MAC latency is tens of seconds (slotted
  // handshakes over ~1 s propagation), so a short run censors every
  // packet originated near the end and caps the measurable delivery
  // ratio well below the routing layer's true performance.
  config.sim_time = Duration::seconds(fast ? 1'200 : 3'600);
  // ~0.1 pkt/s network-wide: the slotted handshake spends several
  // multi-second slots per 2 kbit payload, so nominal capacity is a few
  // hundred bit/s — anything heavier builds unbounded queues.
  config.traffic.offered_load_kbps = 0.2;
  return config;
}

/// Sparse corridor: five layers of two siblings each, one sink layer on
/// top. Every relay layer is redundant, so a single relay outage leaves
/// an alternate path for a router willing to re-converge.
[[nodiscard]] ScenarioConfig corridor_scenario(std::uint64_t seed) {
  ScenarioConfig config = small_test_scenario();
  config.seed = seed;
  config.node_count = 10;
  config.deployment.kind = DeploymentKind::kLayeredColumn;
  config.deployment.width_m = 400.0;
  config.deployment.length_m = 400.0;
  config.deployment.depth_m = 5'000.0;
  config.deployment.layer_spacing_m = 1'000.0;
  config.deployment.jitter_m = 50.0;
  config.enable_mobility = false;
  config.multi_hop = true;
  config.sim_time = Duration::seconds(1'200);
  config.traffic.offered_load_kbps = 0.3;
  // Enough relay outages per run that every routing kind meets several,
  // long enough that a static route pays for the whole window.
  config.fault.outage_rate_per_hour = 30.0;
  config.fault.outage_mean_duration = Duration::seconds(45);
  config.mac_config.dead_neighbor_threshold = 3;
  config.mac_config.max_retries = 2;
  // Pin the naive depth-greedy baseline: without this the dead-neighbor
  // blacklist (ROADMAP 2c) lets greedy route around outages too, which
  // is exactly the behavior the dv>greedy gate uses greedy to contrast.
  config.greedy_blacklist = false;
  return config;
}

/// Per routing kind: means over the seed replications.
using Rows = std::map<std::string, MeanStats>;

void print_table(const Rows& rows) {
  std::cout << "  routing   delivery   stretch   hops   e2e_s   perhop_s   no_route   mac\n";
  for (const auto& [name, s] : rows) {
    std::cout << "  " << name << "\t" << s.e2e_delivery_ratio << "\t" << s.hop_stretch << "\t"
              << s.mean_hops << "\t" << s.mean_e2e_latency_s << "\t"
              << s.mean_per_hop_latency_s << "\t" << s.e2e_dropped_no_route << "\t"
              << s.e2e_dropped_mac << "\n";
  }
  std::cout << "\n";
}

void write_experiment(JsonWriter& json, const Rows& rows) {
  const std::vector<std::pair<std::string, double MeanStats::*>> metrics{
      {"delivery_ratio", &MeanStats::e2e_delivery_ratio},
      {"hop_stretch", &MeanStats::hop_stretch},
      {"mean_hops", &MeanStats::mean_hops},
      {"mean_e2e_latency_s", &MeanStats::mean_e2e_latency_s},
      {"mean_per_hop_latency_s", &MeanStats::mean_per_hop_latency_s},
      {"dropped_no_route", &MeanStats::e2e_dropped_no_route},
      {"dropped_mac", &MeanStats::e2e_dropped_mac},
  };
  json.key("series").begin_object();
  for (const auto& [metric, member] : metrics) {
    json.key(metric).begin_object();
    for (const auto& [name, s] : rows) json.key(name).value(s.*member);
    json.end_object();
  }
  json.end_object();
}

}  // namespace

int main() {
  using namespace aquamac;
  bench::print_header("Multi-hop routing end-to-end",
                      "delivery / stretch / latency per routing kind (not a paper figure)");

  const bool fast = bench::fast();
  const unsigned reps = bench::replications(3);
  const std::size_t grid_nodes = fast ? 64 : 200;
  const unsigned corridor_reps = fast ? 2 : std::max(4u, reps);

  Rows grid_rows;
  Rows outage_rows;
  try {
    std::cout << "fault-free grid, N=" << grid_nodes << " (replications " << reps << ")\n";
    for (const RoutingKind routing : kRoutings) {
      ScenarioConfig config = grid_scenario(grid_nodes, 11, fast);
      config.routing = routing;
      grid_rows[std::string{to_string(routing)}] = bench::audited_mean(config, reps);
    }
    print_table(grid_rows);

    std::cout << "relay-outage corridor, N=10 (replications " << corridor_reps << ")\n";
    for (const RoutingKind routing : {RoutingKind::kGreedy, RoutingKind::kDv}) {
      ScenarioConfig config = corridor_scenario(3);
      config.routing = routing;
      outage_rows[std::string{to_string(routing)}] =
          bench::audited_mean(config, corridor_reps);
    }
    print_table(outage_rows);
  } catch (const std::exception& e) {
    std::cerr << "ERROR: auditor violation: " << e.what() << "\n";
    return 1;
  }

  // The gates the roadmap promises for this bench.
  const double dv_grid_delivery = grid_rows.at("dv").e2e_delivery_ratio;
  const bool grid_ok = dv_grid_delivery >= 0.95;
  if (!grid_ok) {
    std::cerr << "ERROR: DV delivery " << dv_grid_delivery
              << " below 0.95 on the fault-free grid\n";
  }
  const double dv_outage = outage_rows.at("dv").e2e_delivery_ratio;
  const double greedy_outage = outage_rows.at("greedy").e2e_delivery_ratio;
  const bool outage_ok = dv_outage > greedy_outage;
  if (!outage_ok) {
    std::cerr << "ERROR: DV delivery " << dv_outage << " not above greedy "
              << greedy_outage << " under relay outages\n";
  }
  std::cout << "gates: grid dv>=0.95 " << (grid_ok ? "ok" : "FAIL")
            << ", outage dv>greedy " << (outage_ok ? "ok" : "FAIL") << "\n";

  bench::write_json_file("multihop", [&](JsonWriter& json) {
    json.begin_object();
    json.key("bench").value("multihop");
    json.key("schema").value("aquamac-bench-multihop-v1");
    json.key("replications").value(static_cast<double>(reps));
    json.key("grid").begin_object();
    json.key("nodes").value(static_cast<double>(grid_nodes));
    json.key("dv_delivery_gate").value(0.95);
    json.key("dv_delivery_ok").value(grid_ok ? 1.0 : 0.0);
    write_experiment(json, grid_rows);
    json.end_object();
    json.key("outage").begin_object();
    json.key("nodes").value(10.0);
    json.key("replications").value(static_cast<double>(corridor_reps));
    json.key("dv_beats_greedy").value(outage_ok ? 1.0 : 0.0);
    write_experiment(json, outage_rows);
    json.end_object();
    json.end_object();
  });

  return grid_ok && outage_ok ? 0 : 1;
}
