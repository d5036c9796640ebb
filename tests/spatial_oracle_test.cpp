// Differential oracle for the spatial receiver index: the index is a
// pure lookup optimization, so every observable — the merged trace
// digest, the TransmissionAudit ground truth, the run statistics — must
// be bit-identical with the index on or off, for every audited MAC,
// under mobility, and across parallel replication (the TSan target).

#include <gtest/gtest.h>

#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "net/network.hpp"
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

std::uint64_t digest_of(ScenarioConfig config, bool use_index) {
  config.channel.use_spatial_index = use_index;
  HashTrace hash;
  config.trace = &hash;
  (void)run_scenario(config);
  return hash.digest();
}

/// Full-run audit capture: one Network, every TransmissionAudit recorded.
std::vector<TransmissionAudit> audits_of(ScenarioConfig config, bool use_index) {
  config.channel.use_spatial_index = use_index;
  std::vector<TransmissionAudit> audits;
  Simulator sim;
  Network network{sim, config};
  network.channel().set_audit([&audits](const TransmissionAudit& audit) {
    audits.push_back(audit);
  });
  (void)network.run();
  return audits;
}

void expect_audits_equal(const std::vector<TransmissionAudit>& indexed,
                         const std::vector<TransmissionAudit>& brute) {
  ASSERT_EQ(indexed.size(), brute.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    const TransmissionAudit& a = indexed[i];
    const TransmissionAudit& b = brute[i];
    ASSERT_EQ(a.sender, b.sender) << "audit " << i;
    ASSERT_EQ(a.frame.seq, b.frame.seq) << "audit " << i;
    ASSERT_EQ(a.frame.type, b.frame.type) << "audit " << i;
    ASSERT_EQ(a.tx_window.begin, b.tx_window.begin) << "audit " << i;
    ASSERT_EQ(a.reaches.size(), b.reaches.size())
        << "audit " << i << ": receiver sets differ";
    for (std::size_t r = 0; r < a.reaches.size(); ++r) {
      EXPECT_EQ(a.reaches[r].receiver, b.reaches[r].receiver) << "audit " << i;
      EXPECT_EQ(a.reaches[r].window.begin, b.reaches[r].window.begin) << "audit " << i;
      EXPECT_EQ(a.reaches[r].window.end, b.reaches[r].window.end) << "audit " << i;
      EXPECT_EQ(a.reaches[r].rx_level_db, b.reaches[r].rx_level_db) << "audit " << i;
      EXPECT_EQ(a.reaches[r].decodable, b.reaches[r].decodable) << "audit " << i;
    }
  }
}

TEST(SpatialOracle, TraceDigestsMatchAcrossMacs) {
  for (const MacKind mac : {MacKind::kEwMac, MacKind::kSFama, MacKind::kMacaU}) {
    const ScenarioConfig config = oracle_scenario(mac);
    const std::uint64_t indexed = digest_of(config, /*use_index=*/true);
    const std::uint64_t brute = digest_of(config, /*use_index=*/false);
    EXPECT_NE(indexed, 0u);
    EXPECT_EQ(indexed, brute) << to_string(mac) << ": index changed the event stream";
  }
}

TEST(SpatialOracle, TransmissionAuditsMatchAcrossMacs) {
  for (const MacKind mac : {MacKind::kEwMac, MacKind::kSFama, MacKind::kMacaU}) {
    SCOPED_TRACE(to_string(mac));
    const ScenarioConfig config = oracle_scenario(mac);
    expect_audits_equal(audits_of(config, /*use_index=*/true),
                        audits_of(config, /*use_index=*/false));
  }
}

TEST(SpatialOracle, DigestsMatchUnderMobilityAndIndexActuallyRebins) {
  ScenarioConfig config = oracle_scenario(MacKind::kEwMac);
  config.enable_mobility = true;
  // Unphysically fast drifters: cells are 1.5 km, so nodes must cover
  // hundreds of metres within the horizon to guarantee cell crossings.
  config.mobility.speed_mps = 40.0;

  EXPECT_EQ(digest_of(config, true), digest_of(config, false));

  // The equality above is only meaningful if the index really had to
  // follow movers: assert cell crossings happened.
  config.channel.use_spatial_index = true;
  Simulator sim;
  Network network{sim, config};
  (void)network.run();
  EXPECT_GT(network.channel().spatial_rebins(), 0u);
}

TEST(SpatialOracle, LevelBasedWithEchoesMatches) {
  // The SINR-physics path, including surface-bounce echoes, must also be
  // reproduced exactly from the pruned candidate set.
  ScenarioConfig config = oracle_scenario(MacKind::kSFama);
  config.channel.mode = DeliveryMode::kLevelBased;
  config.channel.enable_surface_echo = true;
  config.reception = ReceptionKind::kSinrPer;
  EXPECT_EQ(digest_of(config, true), digest_of(config, false));
  SCOPED_TRACE("level-based audits");
  expect_audits_equal(audits_of(config, true), audits_of(config, false));
}

TEST(SpatialOracle, AuditorSoakStaysCleanWithIndexOnUnderMobility) {
  ScenarioConfig config = oracle_scenario(MacKind::kEwMac);
  config.enable_mobility = true;
  config.channel.use_spatial_index = true;
  InvariantAuditor::Config audit = auditor_config_for(config);
  audit.hard_fail = true;
  InvariantAuditor auditor{audit};
  config.trace = &auditor;
  try {
    (void)run_scenario(config);
  } catch (const std::runtime_error& e) {
    FAIL() << "auditor violation with spatial index on: " << e.what();
  }
  EXPECT_GT(auditor.checks(), 0u);
}

// Runs under TSan in CI: parallel replication with the index on must be
// race-free and produce the same merged digest as with the index off.
TEST(SpatialOracle, ParallelReplicationDigestsMatchAcrossIndexSettings) {
  ScenarioConfig base = oracle_scenario(MacKind::kEwMac);
  base.enable_mobility = true;

  base.channel.use_spatial_index = true;
  HashTrace indexed_hash;
  base.trace = &indexed_hash;
  base.jobs = 4;
  (void)run_replicated(base, 4);

  base.channel.use_spatial_index = false;
  HashTrace brute_hash;
  base.trace = &brute_hash;
  (void)run_replicated(base, 4);

  EXPECT_NE(indexed_hash.digest(), 0u);
  EXPECT_EQ(indexed_hash.digest(), brute_hash.digest());
}

}  // namespace
}  // namespace aquamac
