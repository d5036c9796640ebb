// Protocol hardening under injected faults: neighbor aging, dead-neighbor
// detection and reinstatement, outage rejoin re-learning, and the
// guard-slack regression that drift below the measured clock uncertainty
// never trips the extra-overlap theorem (hard-fail auditor, fixed seeds).

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "stats/invariant_auditor.hpp"
#include "stats/trace.hpp"
#include "testbed.hpp"

namespace aquamac {
namespace {

using testbed::TestBed;

TEST(FaultRecovery, AgingEvictsStaleNeighbor) {
  MacConfig config{};
  config.neighbor_max_age = Duration::seconds(10);
  TestBed bed;
  const NodeId a = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 0}, config);
  const NodeId b = bed.add_node(MacKind::kEwMac, Vec3{600, 0, 0}, config);
  bed.hello_and_settle();
  ASSERT_TRUE(bed.mac(a).neighbor_table().knows(b));

  // Quiet network: nothing refreshes the entry, so an aging sweep past
  // the max age must drop it (and only then).
  bed.sim().run_until(Time::from_seconds(8.0));
  bed.mac(a).age_neighbors();
  EXPECT_TRUE(bed.mac(a).neighbor_table().knows(b)) << "entry still fresh enough";

  bed.sim().run_until(Time::from_seconds(30.0));
  bed.mac(a).age_neighbors();
  EXPECT_FALSE(bed.mac(a).neighbor_table().knows(b));
}

TEST(FaultRecovery, AgingDisabledByDefault) {
  TestBed bed;
  const NodeId a = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 0});
  const NodeId b = bed.add_node(MacKind::kEwMac, Vec3{600, 0, 0});
  bed.hello_and_settle();
  bed.sim().run_until(Time::from_seconds(500.0));
  bed.mac(a).age_neighbors();  // no-op with the knob at zero
  EXPECT_TRUE(bed.mac(a).neighbor_table().knows(b));
}

TEST(FaultRecovery, DeadNeighborDetectionAndProbe) {
  MacConfig config{};
  config.dead_neighbor_threshold = 2;
  // Longer than the observation window below, so the optimistic probe
  // cannot clear the verdict before the test looks at it.
  config.dead_probe_interval = Duration::seconds(500);
  config.max_retries = 2;
  TestBed bed;
  const NodeId a = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 0}, config);
  const NodeId b = bed.add_node(MacKind::kEwMac, Vec3{600, 0, 0}, config);
  bed.hello_and_settle();
  EXPECT_FALSE(bed.mac(a).neighbor_dead(b));

  // Silence the peer and burn handshakes at it: each exhausted retry
  // budget is one consecutive silent failure.
  bed.node(b).modem().set_operational(false);
  bed.mac(a).enqueue_packet(b, 512);
  bed.sim().run_until(Time::from_seconds(120.0));
  bed.mac(a).enqueue_packet(b, 512);
  bed.sim().run_until(Time::from_seconds(240.0));
  ASSERT_TRUE(bed.mac(a).neighbor_dead(b));

  // While dead, traffic toward the peer fast-drops instead of burning air.
  const std::uint64_t dropped_before = bed.counters(a).packets_dropped;
  bed.mac(a).enqueue_packet(b, 512);
  EXPECT_EQ(bed.counters(a).packets_dropped, dropped_before + 1);
  EXPECT_EQ(bed.mac(a).queue_depth(), 0u);

  // The reinstatement probe clears the verdict and re-offers a Hello.
  bed.node(b).modem().set_operational(true);
  bed.sim().run_until(Time::from_seconds(900.0));
  EXPECT_FALSE(bed.mac(a).neighbor_dead(b));
}

TEST(FaultRecovery, ReceptionIsProofOfLife) {
  MacConfig config{};
  config.dead_neighbor_threshold = 2;
  config.max_retries = 2;
  TestBed bed;
  const NodeId a = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 0}, config);
  const NodeId b = bed.add_node(MacKind::kEwMac, Vec3{600, 0, 0}, config);
  bed.hello_and_settle();

  // One silent handshake (below the threshold)...
  bed.node(b).modem().set_operational(false);
  bed.mac(a).enqueue_packet(b, 512);
  bed.sim().run_until(Time::from_seconds(120.0));
  ASSERT_FALSE(bed.mac(a).neighbor_dead(b));

  // ...then the peer speaks, which must reset the consecutive count: the
  // next single silence may not tip the verdict to dead.
  bed.node(b).modem().set_operational(true);
  bed.sim().at(bed.sim().now() + Duration::seconds(1),
               [&] { bed.mac(b).broadcast_hello(); });
  bed.sim().run_until(bed.sim().now() + Duration::seconds(10));

  bed.node(b).modem().set_operational(false);
  bed.mac(a).enqueue_packet(b, 512);
  bed.sim().run_until(Time::from_seconds(300.0));
  EXPECT_FALSE(bed.mac(a).neighbor_dead(b));
}

TEST(FaultRecovery, ResetMacStateForgetsEverything) {
  TestBed bed;
  const NodeId a = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 0});
  const NodeId b = bed.add_node(MacKind::kEwMac, Vec3{600, 0, 0});
  bed.hello_and_settle();
  ASSERT_TRUE(bed.mac(a).neighbor_table().knows(b));
  bed.mac(a).reset_mac_state();
  EXPECT_FALSE(bed.mac(a).neighbor_table().knows(b));
  EXPECT_EQ(bed.mac(a).neighbor_table().size(), 0u);

  // The wiped node re-learns from the next Hello.
  bed.sim().at(bed.sim().now() + Duration::seconds(1),
               [&] { bed.mac(b).broadcast_hello(); });
  bed.sim().run_until(bed.sim().now() + Duration::seconds(10));
  EXPECT_TRUE(bed.mac(a).neighbor_table().knows(b));
}

/// Node 0 sends one DATA to node 1 (600 m, 0.4 s away) and goes down
/// `outage_after` after radiating it, for `outage`: long enough to miss
/// the Ack, short enough to rejoin (reset_mac_state, as Network does)
/// before the Ack deadline armed before the outage. Returns node 0's
/// counters once the packet had time to complete.
MacCounters sender_after_outage_in_ack_wait(MacKind kind, Duration outage) {
  TestBed bed;
  const NodeId a = bed.add_node(kind, Vec3{0, 0, 0});
  const NodeId b = bed.add_node(kind, Vec3{600, 0, 0});
  bed.hello_and_settle();
  bed.mac(a).enqueue_packet(b, 512);
  const std::size_t data = frame_type_index(FrameType::kData);
  while (bed.counters(a).frames_sent[data] == 0) {
    EXPECT_LT(bed.sim().now(), Time::from_seconds(60.0)) << "DATA never sent";
    if (bed.sim().now() >= Time::from_seconds(60.0)) return bed.counters(a);
    bed.sim().run_until(bed.sim().now() + Duration::milliseconds(10));
  }
  bed.sim().run_until(bed.sim().now() + Duration::milliseconds(100));
  bed.node(a).modem().set_operational(false);
  bed.sim().run_until(bed.sim().now() + outage);
  bed.node(a).modem().set_operational(true);
  bed.mac(a).reset_mac_state();
  bed.sim().run_until(bed.sim().now() + Duration::seconds(60));
  return bed.counters(a);
}

// The outage killed the exchange, so the rejoined node starts it afresh:
// the Ack timeout armed before the outage must not fire afterwards and
// charge a retry (the packet goes out again as a first attempt).
TEST(FaultRecovery, SAlohaOutageDuringAckWaitChargesNoRetry) {
  // The Ack leaves at the receiver's next boundary (<= 1.9 s after the
  // DATA); the deadline is >= 3 slots after it.
  const MacCounters c =
      sender_after_outage_in_ack_wait(MacKind::kSlottedAloha, Duration::milliseconds(2'400));
  EXPECT_EQ(c.retransmitted_frames, 0u);
  EXPECT_EQ(c.packets_sent_ok, 1u);
}

TEST(FaultRecovery, CwMacOutageDuringAckWaitChargesNoRetry) {
  const MacCounters c =
      sender_after_outage_in_ack_wait(MacKind::kCwMac, Duration::milliseconds(2'400));
  EXPECT_EQ(c.retransmitted_frames, 0u);
  EXPECT_EQ(c.packets_sent_ok, 1u);
}

TEST(FaultRecovery, MacaUOutageDuringAckWaitChargesNoRetry) {
  // The Ack is sent on reception (back ~0.85 s after the DATA); the
  // deadline is ~2.05 s after it.
  const MacCounters c =
      sender_after_outage_in_ack_wait(MacKind::kMacaU, Duration::milliseconds(1'300));
  EXPECT_EQ(c.retransmitted_frames, 0u);
  EXPECT_EQ(c.packets_sent_ok, 1u);
}

TEST(FaultRecovery, RejoinRelearnsBeforeExtraNegotiation) {
  // A node returning from an outage has forgotten every measured delay;
  // it must not schedule extra traffic (Eq. 6 needs delays) until at
  // least one HELLO/piggyback reception refreshed its table. The trace
  // makes this checkable: after kFaultNodeUp at node n, any
  // kExtraScheduled at n must be preceded by a kNeighborUpdate at n.
  ScenarioConfig config = small_test_scenario();
  config.mac = MacKind::kEwMac;
  config.seed = 3;
  config.sim_time = Duration::seconds(120);
  config.traffic.offered_load_kbps = 0.5;
  config.fault.outage_rate_per_hour = 150.0;
  config.fault.outage_mean_duration = Duration::seconds(8);

  MemoryTrace trace;
  config.trace = &trace;
  (void)run_scenario(config);

  ASSERT_GT(trace.count(TraceEventKind::kFaultNodeUp), 0u) << "no rejoins realized";
  ASSERT_GT(trace.count(TraceEventKind::kExtraScheduled), 0u) << "no extras: vacuous";

  std::unordered_map<NodeId, bool> has_delays;  // absent = never wiped
  std::size_t rejoin_extras_checked = 0;
  for (const TraceEvent& event : trace.events()) {
    switch (event.kind) {
      case TraceEventKind::kFaultNodeUp:
        has_delays[event.node] = false;
        break;
      case TraceEventKind::kNeighborUpdate: {
        const auto it = has_delays.find(event.node);
        if (it != has_delays.end()) it->second = true;
        break;
      }
      case TraceEventKind::kExtraScheduled: {
        const auto it = has_delays.find(event.node);
        if (it != has_delays.end()) {
          rejoin_extras_checked += 1;
          EXPECT_TRUE(it->second)
              << "node " << event.node << " scheduled an extra at "
              << event.at.to_string() << " before re-learning any delay";
        }
        break;
      }
      default: break;
    }
  }
  // The assertion above is only meaningful if some rejoined node actually
  // re-entered the extra phase during the run.
  EXPECT_GT(rejoin_extras_checked, 0u);
}

TEST(FaultSoak, EwMacDriftBelowGuardSlackKeepsExtraOverlapClean) {
  // The hardening contract: with guard_slack sized to the realized clock
  // uncertainty, drift cannot trip the extra-overlap theorem. Hard-fail
  // auditor, fixed seeds — any violation aborts the run.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ScenarioConfig config = small_test_scenario();
    config.mac = MacKind::kEwMac;
    config.seed = seed;
    config.fault.drift_ppm_stddev = 2'000.0;
    config.fault.drift_jitter_stddev_s = 0.0005;
    config.mac_config.guard_slack = realized_clock_uncertainty(config);

    InvariantAuditor::Config audit = auditor_config_for(config);
    audit.hard_fail = true;
    InvariantAuditor auditor{audit};
    config.trace = &auditor;
    ASSERT_NO_THROW((void)run_scenario(config)) << "seed " << seed;
    EXPECT_TRUE(auditor.violations().empty()) << "seed " << seed;
    EXPECT_GT(auditor.checks(), 0u) << "seed " << seed;
  }
}

TEST(FaultSoak, AllProtocolsSurviveDriftOutagesAndBursts) {
  // Full fault cocktail, all three protocols, hard-fail auditor scoped to
  // healthy intervals: the run must complete with zero violations while
  // still performing a nontrivial number of checks.
  for (const MacKind mac : {MacKind::kEwMac, MacKind::kSFama, MacKind::kMacaU}) {
    ScenarioConfig config = small_test_scenario();
    config.mac = mac;
    config.seed = 7;
    config.fault.drift_ppm_stddev = 1'000.0;
    config.fault.outage_rate_per_hour = 90.0;
    config.fault.outage_mean_duration = Duration::seconds(6);
    config.fault.ge_p_bad = 0.05;
    config.fault.ge_p_good = 0.3;
    config.fault.ge_loss_bad = 0.9;
    config.mac_config.guard_slack = realized_clock_uncertainty(config);
    config.mac_config.neighbor_max_age = Duration::seconds(45);
    config.mac_config.dead_neighbor_threshold = 4;

    InvariantAuditor::Config audit = auditor_config_for(config);
    audit.hard_fail = true;
    InvariantAuditor auditor{audit};
    config.trace = &auditor;
    RunStats stats{};
    ASSERT_NO_THROW(stats = run_scenario(config)) << to_string(mac);
    EXPECT_TRUE(auditor.violations().empty()) << to_string(mac);
    EXPECT_GT(auditor.checks(), 0u) << to_string(mac);
    EXPECT_GT(stats.packets_delivered, 0u)
        << to_string(mac) << ": the faulted network should still deliver";
  }
}

// --- routing recovery: cut-vertex relay outage (docs/routing.md) -------

/// A five-node vertical chain: one node per 1 km layer in a 50 m-wide
/// column, so with the 1.5 km comm range each node reaches exactly its
/// depth neighbors. Node 0 (shallowest) is the sink; every mid-chain
/// relay is a cut vertex for everything below it.
ScenarioConfig chain_dv_scenario(std::uint64_t seed) {
  ScenarioConfig config = small_test_scenario();
  config.seed = seed;
  config.node_count = 5;
  config.deployment.kind = DeploymentKind::kLayeredColumn;
  config.deployment.width_m = 50.0;
  config.deployment.length_m = 50.0;
  config.deployment.depth_m = 5'000.0;
  config.deployment.layer_spacing_m = 1'000.0;
  config.deployment.jitter_m = 20.0;
  config.enable_mobility = false;
  config.multi_hop = true;
  config.routing = RoutingKind::kDv;
  config.sim_time = Duration::seconds(400);
  config.traffic.offered_load_kbps = 0.5;
  // Threshold 3: low enough that the outage is declared quickly, high
  // enough that ordinary collision streaks on the busy chain don't cause
  // spurious dead declarations (which would bleed dropped_no_route after
  // re-convergence and mask the recovery signal this test asserts on).
  config.mac_config.dead_neighbor_threshold = 3;
  config.mac_config.max_retries = 2;
  config.fault.outage_rate_per_hour = 10.0;
  config.fault.outage_mean_duration = Duration::seconds(60);
  return config;
}

TEST(FaultRecovery, DvReconvergesAfterCutVertexOutage) {
  // Scan seeds for a clean experiment: exactly one outage, hitting a
  // mid-chain relay (never the sink), starting after DV has converged and
  // ending with enough run left to observe recovery. The plan is realized
  // at Network construction, so the scan never runs a simulation.
  ScenarioConfig config;
  TimeInterval outage{};
  NodeId cut_vertex = kNoNode;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
    config = chain_dv_scenario(seed);
    Simulator probe_sim{config.logger};
    const Network probe{probe_sim, config};
    ASSERT_NE(probe.fault_plan(), nullptr);
    std::vector<TimeInterval> all;
    NodeId owner = kNoNode;
    for (NodeId id = 0; id < 5; ++id) {
      for (const TimeInterval& iv : probe.fault_plan()->down_intervals(id)) {
        if (iv.begin >= probe.horizon()) continue;
        all.push_back(iv);
        owner = id;
      }
    }
    if (all.size() != 1 || owner == 0 || owner == 4) continue;  // relay outages only
    const Time settle = probe.traffic_start() + Duration::seconds(80);
    if (all[0].begin < settle) continue;
    if (all[0].end + Duration::seconds(150) > probe.horizon()) continue;
    outage = all[0];
    cut_vertex = owner;
    found = true;
  }
  ASSERT_TRUE(found) << "no seed in [1, 40] realizes a clean cut-vertex outage";

  Simulator sim{config.logger};
  Network network{sim, config};

  // Sample the relay counters just before the outage and again after the
  // rejoin plus re-convergence time, via non-perturbing boundary hooks.
  struct Sample {
    std::uint64_t arrived{0};
    std::uint64_t no_route{0};
    std::uint64_t dropped_mac{0};
    bool deep_routed{false};
  };
  const Time pre = outage.begin - Duration::seconds(5);
  const Time post = outage.end + Duration::seconds(90);
  std::vector<Sample> samples;
  RunBoundaryHooks hooks;
  hooks.boundaries = {pre, post};
  hooks.on_boundary = [&](Time) {
    const RunStats now = network.stats();
    Sample s;
    s.arrived = now.e2e_arrived_at_sink;
    s.no_route = now.e2e_dropped_no_route;
    s.dropped_mac = now.e2e_dropped_mac;
    const DvRouter* deep = network.dv_router(4);
    s.deep_routed = deep != nullptr && deep->best() != nullptr;
    samples.push_back(s);
    return true;
  };
  const RunStats final_stats = network.run(hooks);
  ASSERT_EQ(samples.size(), 2u);

  // Before the outage the chain is converged and delivering.
  EXPECT_GT(samples[0].arrived, 0u) << "chain never delivered before the outage";
  EXPECT_TRUE(samples[0].deep_routed) << "deepest node had no route pre-outage";

  // The outage was actually felt at the routing layer: traffic below the
  // cut vertex died on dead-neighbor fast-drops or no-route drops.
  const std::uint64_t outage_drops =
      (samples[1].no_route - samples[0].no_route) +
      (samples[1].dropped_mac - samples[0].dropped_mac);
  EXPECT_GT(outage_drops, 0u) << "cut vertex " << cut_vertex << " outage left no mark";

  // Recovery: routes re-converged after the rejoin...
  EXPECT_TRUE(samples[1].deep_routed)
      << "deepest node still routeless " << (post - outage.end).to_seconds()
      << " s after the rejoin";
  // ...the no-route bleed stopped...
  EXPECT_EQ(final_stats.e2e_dropped_no_route, samples[1].no_route)
      << "dropped_no_route still growing after re-convergence";
  // ...and end-to-end delivery resumed.
  EXPECT_GT(final_stats.e2e_arrived_at_sink, samples[1].arrived)
      << "no deliveries after recovery";
}

TEST(FaultSoak, FaultEventsAppearInTrace) {
  ScenarioConfig config = small_test_scenario();
  config.sim_time = Duration::seconds(60);
  config.fault.outage_rate_per_hour = 200.0;
  config.fault.outage_mean_duration = Duration::seconds(5);
  config.fault.drift_jitter_stddev_s = 0.001;
  config.fault.ge_p_bad = 0.1;
  config.fault.storm_rate_per_hour = 60.0;

  MemoryTrace trace;
  config.trace = &trace;
  (void)run_scenario(config);

  EXPECT_GT(trace.count(TraceEventKind::kFaultNodeDown), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kFaultClockStep), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kFaultBurstBegin), 0u);
  EXPECT_TRUE(trace.is_time_ordered());
}

}  // namespace
}  // namespace aquamac
