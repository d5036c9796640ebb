// Runtime companion to aquamac-lint's state-coverage rule: after
// exercising each subsystem to a mid-run state (queues populated,
// handshakes pending, routes learned, custody in flight), the
// save -> restore -> save round trip must be byte-identical and leave no
// trailing payload. The static rule proves every member is *referenced*
// in its type's one visit_state body; this test proves that body
// actually encodes and decodes symmetrically. Targeted regressions at the
// bottom pin the misses the coverage lint surfaced: DvRouter's explicit
// last_best_ serialization, the relay reliability-config cross-check, and
// the MAC event-handle armed-bit cross-check.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "harness/scenario.hpp"
#include "mac/mac_factory.hpp"
#include "net/dv_router.hpp"
#include "net/network.hpp"
#include "net/relay.hpp"
#include "sim/checkpoint.hpp"
#include "testbed.hpp"

namespace aquamac {
namespace {

using testbed::TestBed;

/// Runs `config` to `capture_s`, snapshots the live network there, and
/// byte-compares the restore round trip (Network::verify_restore throws
/// CheckpointError naming the first diverging section on any drift).
void expect_roundtrip_clean(ScenarioConfig config, double capture_s) {
  Simulator sim{config.logger};
  Network network{sim, config};
  bool captured = false;
  RunBoundaryHooks hooks;
  hooks.boundaries = {Time::from_seconds(capture_s)};
  hooks.on_boundary = [&](Time) {
    StateWriter writer;
    save_state(network, writer);
    EXPECT_GT(writer.bytes().size(), 0u);
    EXPECT_NO_THROW(network.verify_restore(writer.bytes()));
    captured = true;
    return false;  // mid-run state is the interesting capture; stop here
  };
  network.run(hooks);
  EXPECT_TRUE(captured) << "boundary hook never fired";
}

TEST(CkptFieldCoverage, EveryMacRoundTripsMidRun) {
  for (const MacKind kind :
       {MacKind::kEwMac, MacKind::kSFama, MacKind::kRopa, MacKind::kCsMac, MacKind::kCwMac,
        MacKind::kSlottedAloha, MacKind::kMacaU}) {
    SCOPED_TRACE(std::string{to_string(kind)});
    ScenarioConfig config = small_test_scenario();
    config.mac = kind;
    expect_roundtrip_clean(config, 30.0);
  }
}

TEST(CkptFieldCoverage, MobilityStateRoundTrips) {
  ScenarioConfig config = small_test_scenario();
  config.enable_mobility = true;
  expect_roundtrip_clean(config, 30.0);
}

TEST(CkptFieldCoverage, MultiHopTreeRoutingRoundTrips) {
  ScenarioConfig config = small_test_scenario();
  config.multi_hop = true;
  config.routing = RoutingKind::kTree;
  expect_roundtrip_clean(config, 30.0);
}

TEST(CkptFieldCoverage, MultiHopDvWithReliabilityRoundTrips) {
  ScenarioConfig config = small_test_scenario();
  config.multi_hop = true;
  config.routing = RoutingKind::kDv;
  config.reliability.max_retries = 2;
  config.reliability.queue_limit = 8;
  expect_roundtrip_clean(config, 30.0);
}

TEST(CkptFieldCoverage, FaultPlanAndClockSkewRoundTrip) {
  ScenarioConfig config = small_test_scenario();
  config.clock_offset_stddev_s = 0.01;
  config.node_failure_fraction = 0.2;
  config.node_failure_time = Duration::seconds(10);
  config.fault.drift_ppm_stddev = 5.0;
  config.fault.drift_jitter_stddev_s = 0.001;
  config.fault.outage_rate_per_hour = 20.0;
  config.fault.ge_p_bad = 0.05;
  expect_roundtrip_clean(config, 35.0);
}

// --- DvRouter: last_best_ travels in the payload -----------------------
//
// Restoring into a default-constructed router must reproduce the exact
// bytes, including the change-detection baseline. A restore that derived
// last_best_ from the entries instead of decoding it would desynchronize
// change suppression after resume (regression for the omission the
// coverage lint surfaced).
TEST(CkptFieldCoverage, DvRouterRoundTripsIntoFreshRouter) {
  DvRouter source{/*self=*/3, /*is_sink=*/false};
  Frame ad{};
  ad.src = 1;
  ad.route_valid = true;
  ad.route_sink = 0;
  ad.route_seq = 4;
  ad.route_cost = Duration::seconds(2);
  ad.route_hops = 1;
  source.observe(ad, Duration::seconds(1), Time::from_seconds(5.0));
  ASSERT_NE(source.best(), nullptr);

  // A second, worse route that then gets invalidated: the payload must
  // carry invalid entries too, not just the winners.
  Frame worse{};
  worse.src = 2;
  worse.route_valid = true;
  worse.route_sink = 5;
  worse.route_seq = 2;
  worse.route_cost = Duration::seconds(9);
  worse.route_hops = 3;
  source.observe(worse, Duration::seconds(2), Time::from_seconds(6.0));
  source.neighbor_down(2);

  StateWriter writer;
  save_state(source, writer);

  DvRouter fresh{/*self=*/3, /*is_sink=*/false};
  StateReader reader{writer.bytes()};
  restore_state(fresh, reader);
  EXPECT_EQ(reader.remaining(), 0u);

  StateWriter round_trip;
  save_state(fresh, round_trip);
  EXPECT_EQ(round_trip.bytes(), writer.bytes());
  ASSERT_NE(fresh.best(), nullptr);
  EXPECT_EQ(fresh.best()->via, 1u);
  EXPECT_EQ(fresh.entries().size(), source.entries().size());
}

// --- RelayAgent: the payload layout branches on the ARQ config ---------
TEST(CkptFieldCoverage, RelayRestoreRejectsReliabilityConfigMismatch) {
  TestBed bed;
  const NodeId a = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 1'000});
  const auto next_hop = [](NodeId) -> std::optional<NodeId> { return std::nullopt; };

  ReliabilityConfig arq;
  arq.max_retries = 2;
  RelayAgent with_arq{bed.sim(), bed.mac(a), a, /*is_sink=*/false, next_hop,
                      /*hop_limit=*/16, arq};
  StateWriter writer;
  save_state(with_arq, writer);

  RelayAgent without_arq{bed.sim(), bed.mac(a), a, /*is_sink=*/false, next_hop,
                         /*hop_limit=*/16, ReliabilityConfig{}};
  StateReader reader{writer.bytes()};
  EXPECT_THROW(restore_state(without_arq, reader), CheckpointError);

  // And the converse: an ARQ-off payload into an ARQ-on agent.
  StateWriter off_writer;
  save_state(without_arq, off_writer);
  StateReader off_reader{off_writer.bytes()};
  EXPECT_THROW(restore_state(with_arq, off_reader), CheckpointError);
}

// --- MAC event handles: the armed bit is cross-checked on restore ------
//
// A payload captured while an attempt event was armed must be rejected
// when restored onto a MAC whose replayed schedule has no such event
// (read_handle's divergence check). The same payload restores cleanly
// onto the MAC that produced it.
TEST(CkptFieldCoverage, MacRestoreRejectsHandleArmedBitDivergence) {
  TestBed bed;
  const NodeId a = bed.add_node(MacKind::kSlottedAloha, Vec3{0, 0, 1'000});
  const NodeId b = bed.add_node(MacKind::kSlottedAloha, Vec3{0, 0, 1'500});
  bed.hello_and_settle();

  bed.mac(a).enqueue_packet(b, 1'024);  // arms the attempt event
  StateWriter armed;
  save_state(bed.mac(a), armed);

  StateReader self_reader{armed.bytes()};
  EXPECT_NO_THROW(restore_state(bed.mac(a), self_reader));

  // The idle node never armed an attempt: restoring the armed payload
  // onto it must fail the cross-check instead of silently desyncing.
  StateReader cross_reader{armed.bytes()};
  EXPECT_THROW(restore_state(bed.mac(b), cross_reader), CheckpointError);
}

}  // namespace
}  // namespace aquamac
