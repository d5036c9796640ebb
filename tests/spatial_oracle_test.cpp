// The channel's delivery loop against the brute-force reach oracle
// (reach_oracle.hpp): every TransmissionAudit of a serial run must list
// exactly the receivers, windows, levels and decodability that a scan of
// every node with freshly computed paths yields — for every audited MAC,
// under mobility fast enough to move nodes across index cells, and in the
// level-based SINR mode with echoes. Installing the oracle must not move
// the trace digest, and parallel replication (the TSan target) must
// reproduce the serial digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "net/network.hpp"
#include "reach_oracle.hpp"
#include "stats/invariant_auditor.hpp"
#include "stats/trace.hpp"

namespace aquamac {
namespace {

ScenarioConfig oracle_scenario(MacKind mac) {
  ScenarioConfig config = small_test_scenario();
  config.mac = mac;
  config.sim_time = Duration::seconds(40);
  return config;
}

std::uint64_t digest_of(ScenarioConfig config) {
  HashTrace hash;
  config.trace = &hash;
  (void)run_scenario(config);
  return hash.digest();
}

struct OracleRun {
  std::uint64_t digest{0};
  std::uint64_t spatial_rebins{0};
};

/// One serial run with the reach oracle as the channel audit; expects
/// every transmission to match it.
OracleRun run_against_oracle(ScenarioConfig config) {
  HashTrace hash;
  config.trace = &hash;
  Simulator sim;
  Network network{sim, config};
  const ReachOracle oracle{network};
  (void)network.run();
  EXPECT_GT(oracle.audits(), 0u);
  EXPECT_EQ(oracle.mismatches(), 0u) << oracle.first_mismatch();
  return {hash.digest(), network.channel().spatial_rebins()};
}

TEST(SpatialOracle, TransmissionAuditsMatchAcrossMacs) {
  for (const MacKind mac : {MacKind::kEwMac, MacKind::kSFama, MacKind::kMacaU}) {
    SCOPED_TRACE(to_string(mac));
    (void)run_against_oracle(oracle_scenario(mac));
  }
}

TEST(SpatialOracle, TraceDigestsMatchAcrossMacs) {
  // The oracle only observes: with it installed the event stream is the
  // one an unaudited run produces.
  for (const MacKind mac : {MacKind::kEwMac, MacKind::kSFama, MacKind::kMacaU}) {
    const ScenarioConfig config = oracle_scenario(mac);
    const std::uint64_t plain = digest_of(config);
    EXPECT_NE(plain, 0u);
    EXPECT_EQ(run_against_oracle(config).digest, plain)
        << to_string(mac) << ": the audit changed the event stream";
  }
}

TEST(SpatialOracle, DigestsMatchUnderMobilityAndIndexActuallyRebins) {
  // A 3-D grid several cells wide on every axis, so receivers sit in all
  // 27 cells around a sender (the small scenario is one cell deep).
  ScenarioConfig config = grid3d_scenario(200, /*seed=*/7);
  config.mac = MacKind::kEwMac;
  config.sim_time = Duration::seconds(20);
  config.enable_mobility = true;
  // Unphysically fast drifters: cells are 1.5 km, so nodes must cover
  // hundreds of metres within the horizon to guarantee cell crossings.
  config.mobility.speed_mps = 40.0;

  const OracleRun run = run_against_oracle(config);
  EXPECT_EQ(run.digest, digest_of(config));
  // The oracle's verdict is only meaningful if the index really had to
  // follow movers: assert cell crossings happened.
  EXPECT_GT(run.spatial_rebins, 0u);
}

TEST(SpatialOracle, LevelBasedWithEchoesMatches) {
  // The SINR-physics path: reach and decodability come from the level
  // against the effective floor and the detection threshold.
  ScenarioConfig config = oracle_scenario(MacKind::kSFama);
  config.channel.mode = DeliveryMode::kLevelBased;
  config.channel.enable_surface_echo = true;
  config.reception = ReceptionKind::kSinrPer;
  EXPECT_EQ(run_against_oracle(config).digest, digest_of(config));
}

TEST(SpatialOracle, AuditorSoakStaysCleanWithIndexOnUnderMobility) {
  ScenarioConfig config = oracle_scenario(MacKind::kEwMac);
  config.enable_mobility = true;
  InvariantAuditor::Config audit = auditor_config_for(config);
  audit.hard_fail = true;
  InvariantAuditor auditor{audit};
  config.trace = &auditor;
  Simulator sim;
  Network network{sim, config};
  const ReachOracle oracle{network};
  try {
    (void)network.run();
  } catch (const std::runtime_error& e) {
    FAIL() << "auditor violation: " << e.what();
  }
  EXPECT_GT(auditor.checks(), 0u);
  EXPECT_EQ(oracle.mismatches(), 0u) << oracle.first_mismatch();
}

// Runs under TSan in CI: parallel replication must be race-free and
// produce the same merged digest as serial replication.
TEST(SpatialOracle, ParallelReplicationDigestsMatchSerial) {
  ScenarioConfig base = oracle_scenario(MacKind::kEwMac);
  base.enable_mobility = true;

  HashTrace parallel_hash;
  base.trace = &parallel_hash;
  base.jobs = 4;
  (void)run_replicated(base, 4);

  HashTrace serial_hash;
  base.trace = &serial_hash;
  base.jobs = 1;
  (void)run_replicated(base, 4);

  EXPECT_NE(parallel_hash.digest(), 0u);
  EXPECT_EQ(parallel_hash.digest(), serial_hash.digest());
}

}  // namespace
}  // namespace aquamac
