// Differential oracle for the distance-vector protocol (docs/routing.md):
// on a static, fault-free deployment the DvRouter tables, once converged,
// must equal the RouteTable shortest-delay tree built from the *final*
// neighbor-table delay estimates — entry for entry: same next hop, same
// hop count, same path cost. Both layers share route_link_cost and the
// (cost, lower-id) tie-break, so this is exact equality, not "close".
// Checked across EW-MAC, CS-MAC and S-FAMA, plus a jobs 1-vs-4 and
// HashTrace digest identity so the DV machinery stays inside the
// determinism wall. The suite name is matched by the CI TSan job.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "net/network.hpp"
#include "net/route_table.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace aquamac {
namespace {

/// A static multi-hop DV scenario: no mobility, no clock skew, no faults,
/// light load — measured delays are constant, so DV has a fixed point.
ScenarioConfig dv_static_scenario(MacKind mac, std::uint64_t seed) {
  ScenarioConfig config = grid3d_scenario(48, seed);
  config.mac = mac;
  config.multi_hop = true;
  config.routing = RoutingKind::kDv;
  config.enable_mobility = false;
  config.clock_offset_stddev_s = 0.0;
  config.sim_time = Duration::seconds(120);
  config.traffic.offered_load_kbps = 0.2;
  return config;
}

TEST(RoutingDifferential, ConvergedDvTablesEqualShortestDelayTree) {
  for (const MacKind mac : {MacKind::kEwMac, MacKind::kCsMac, MacKind::kSFama}) {
    SCOPED_TRACE(to_string(mac));
    const ScenarioConfig config = dv_static_scenario(mac, 21);
    Simulator sim{config.logger};
    Network network{sim, config};
    (void)network.run();

    // The oracle tree, built from the delays as the run left them — the
    // same inputs the DV ads carried (static network: delays constant).
    std::vector<std::map<NodeId, Duration>> delays(network.node_count());
    std::vector<bool> sinks(network.node_count(), false);
    for (std::size_t i = 0; i < network.node_count(); ++i) {
      for (const auto& [neighbor, entry] : network.node(static_cast<NodeId>(i)).neighbors().entries()) {
        delays[i][neighbor] = entry.delay;
      }
      sinks[i] = network.relay(static_cast<NodeId>(i))->is_sink();
    }
    const RouteTable tree = RouteTable::build(delays, sinks);

    std::size_t compared = 0;
    for (std::size_t i = 0; i < network.node_count(); ++i) {
      const auto id = static_cast<NodeId>(i);
      const DvRouter* dv = network.dv_router(id);
      ASSERT_NE(dv, nullptr);
      if (sinks[i]) {
        // A sink's best route is itself at cost zero; it relays nothing.
        EXPECT_FALSE(dv->next_hop().has_value());
        continue;
      }
      SCOPED_TRACE("node " + std::to_string(id));
      if (!tree.reachable(id)) {
        EXPECT_EQ(dv->best(), nullptr) << "DV found a route the tree cannot see";
        continue;
      }
      const DvRouter::Entry* best = dv->best();
      ASSERT_NE(best, nullptr) << "tree routes this node but DV never converged";
      EXPECT_EQ(dv->next_hop(), tree.next_hop(id));
      EXPECT_EQ(best->hops, tree.hops(id));
      EXPECT_EQ(best->cost, tree.cost(id));
      compared += 1;
    }
    // Liveness: the grid must actually route the overwhelming majority of
    // nodes, or the equality above is vacuous.
    EXPECT_GE(compared, network.node_count() * 3 / 4);
  }
}

TEST(RoutingDifferential, DvRunsDigestIdenticalAcrossJobs) {
  // The exact same DV scenario replicated with jobs = 1 and jobs = 4 must
  // produce bit-identical per-replication results (harness-level
  // parallelism may not perturb the routing layer).
  ScenarioConfig base = dv_static_scenario(MacKind::kEwMac, 31);
  base.sim_time = Duration::seconds(60);
  base.jobs = 1;
  const std::vector<RunStats> serial = run_replicated(base, 3);
  base.jobs = 4;
  const std::vector<RunStats> parallel = run_replicated(base, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    SCOPED_TRACE("replication " + std::to_string(k));
    EXPECT_GT(serial[k].e2e_originated, 0u);
    EXPECT_EQ(serial[k].e2e_originated, parallel[k].e2e_originated);
    EXPECT_EQ(serial[k].e2e_arrived_at_sink, parallel[k].e2e_arrived_at_sink);
    EXPECT_EQ(serial[k].e2e_forwarded, parallel[k].e2e_forwarded);
    EXPECT_EQ(serial[k].e2e_dropped_no_route, parallel[k].e2e_dropped_no_route);
    EXPECT_EQ(serial[k].mean_e2e_latency_s, parallel[k].mean_e2e_latency_s);
    EXPECT_EQ(serial[k].hop_stretch, parallel[k].hop_stretch);
    EXPECT_EQ(serial[k].total_energy_j, parallel[k].total_energy_j);
  }
}

TEST(RoutingDifferential, DvTraceDigestIsReproducible) {
  // Same config, two independent runs: the full event stream (now
  // including kRouteUpdate and the relay events) must digest identically.
  auto digest_of = [] {
    ScenarioConfig config = dv_static_scenario(MacKind::kCsMac, 17);
    config.sim_time = Duration::seconds(60);
    HashTrace trace;
    config.trace = &trace;
    const RunStats stats = run_scenario(config);
    EXPECT_GT(stats.e2e_originated, 0u);
    return trace.digest();
  };
  const std::uint64_t first = digest_of();
  EXPECT_NE(first, HashTrace{}.digest());
  EXPECT_EQ(digest_of(), first);
}

}  // namespace
}  // namespace aquamac
