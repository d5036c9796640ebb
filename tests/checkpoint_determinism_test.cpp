// Correctness wall for checkpoint/resume (docs/checkpoint.md). The
// contract: a run checkpointed at T and resumed must be bit-identical —
// trace digests and every stat — to the run that never stopped, for
// serial and sharded engines, including capturing at one shard count and
// resuming at another (the engine capture is K-invariant). The container
// must reject truncation, corruption, version skew and trailing bytes
// with distinct errors, and a tampered payload must fail the replay
// verification instead of silently skewing results. The suite name is
// matched by the CI ThreadSanitizer job and the checkpoint-soak step.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/checkpoint_run.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "mac/mac_factory.hpp"
#include "sim/checkpoint.hpp"
#include "stats/trace.hpp"

namespace aquamac {
namespace {

// --- the byte codec ----------------------------------------------------

TEST(CheckpointDeterminism, StateCodecRoundTripsEveryPrimitive) {
  StateWriter w;
  w.write_u8(7);
  w.write_u32(0xDEADBEEFu);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i64(-42);
  w.write_f64(-0.1);  // exact bit pattern, not formatted text
  w.write_bool(true);
  w.write_string("aquamac");
  w.write_time(Time::from_ns(123'456'789));
  w.write_duration(Duration::nanoseconds(-5));
  w.section("outer", [](StateWriter& s) {
    s.write_u32(1);
    s.section("inner", [](StateWriter& nested) { nested.write_bool(false); });
  });

  StateReader r{w.bytes()};
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_f64(), -0.1);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_string(), "aquamac");
  EXPECT_EQ(r.read_time(), Time::from_ns(123'456'789));
  EXPECT_EQ(r.read_duration(), Duration::nanoseconds(-5));
  r.section("outer", [](StateReader& s) {
    EXPECT_EQ(s.read_u32(), 1u);
    s.section("inner", [](StateReader& nested) { EXPECT_FALSE(nested.read_bool()); });
  });
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CheckpointDeterminism, StateReaderRejectsLayoutSkew) {
  StateWriter w;
  w.section("engine", [](StateWriter& s) {
    s.write_u32(1);
    s.write_u32(2);
  });

  // Wrong section name.
  StateReader wrong_name{w.bytes()};
  EXPECT_THROW(wrong_name.section("nodes", [](StateReader&) {}), CheckpointError);

  // Under-consumed section body.
  StateReader partial{w.bytes()};
  EXPECT_THROW(
      partial.section("engine", [](StateReader& s) { static_cast<void>(s.read_u32()); }),
      CheckpointError);

  // Reading past the end.
  StateReader empty{std::string_view{}};
  EXPECT_THROW(static_cast<void>(empty.read_u64()), CheckpointError);
}

// --- the container -----------------------------------------------------

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.scenario_text = "nodes = 4\nseed = 9\n";
  ckpt.at = Time::from_seconds(1.5);
  ckpt.payload = std::string{"binary\0payload", 14};
  return ckpt;
}

std::string container_bytes(const Checkpoint& ckpt) {
  std::ostringstream os;
  write_checkpoint(os, ckpt);
  return os.str();
}

std::string error_of(const std::string& bytes) {
  std::istringstream is{bytes};
  try {
    static_cast<void>(read_checkpoint(is));
  } catch (const CheckpointError& e) {
    return e.what();
  }
  return {};
}

TEST(CheckpointDeterminism, ContainerRoundTrips) {
  const Checkpoint ckpt = sample_checkpoint();
  std::istringstream is{container_bytes(ckpt)};
  const Checkpoint back = read_checkpoint(is);
  EXPECT_EQ(back.scenario_text, ckpt.scenario_text);
  EXPECT_EQ(back.at, ckpt.at);
  EXPECT_EQ(back.payload, ckpt.payload);
}

TEST(CheckpointDeterminism, ContainerRejectsTruncation) {
  const std::string bytes = container_bytes(sample_checkpoint());
  EXPECT_NE(error_of(bytes.substr(0, 4)), "");
  EXPECT_NE(error_of(bytes.substr(0, bytes.size() - 9)), "");
}

TEST(CheckpointDeterminism, ContainerRejectsBitFlip) {
  std::string bytes = container_bytes(sample_checkpoint());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  EXPECT_NE(error_of(bytes).find("digest mismatch"), std::string::npos) << error_of(bytes);
}

TEST(CheckpointDeterminism, ContainerRejectsVersionSkewBeforeDigest) {
  // Damage only the version character: both the magic and the digest are
  // now wrong, and the version error must win (a future-format file
  // should be reported as such, not as corruption).
  std::string bytes = container_bytes(sample_checkpoint());
  const std::size_t magic_at = bytes.find(kCheckpointMagic);
  ASSERT_NE(magic_at, std::string::npos);
  bytes[magic_at + kCheckpointMagic.size() - 1] = '7';
  EXPECT_NE(error_of(bytes).find("unsupported checkpoint format"), std::string::npos)
      << error_of(bytes);
}

TEST(CheckpointDeterminism, ContainerRejectsTrailingBytes) {
  // Hand-build a container with one stray byte between the fields and
  // the (self-consistent) digest trailer.
  const Checkpoint ckpt = sample_checkpoint();
  StateWriter body;
  body.write_string(kCheckpointMagic);
  body.write_string(ckpt.scenario_text);
  body.write_time(ckpt.at);
  body.write_string(ckpt.payload);
  body.write_u8(0);
  StateWriter tail;
  tail.write_u64(fnv1a(body.bytes()));
  EXPECT_NE(error_of(body.bytes() + tail.bytes()).find("trailing bytes"), std::string::npos);
}

// --- whole runs: resume must be bit-identical --------------------------

struct RunOutput {
  std::uint64_t digest{0};
  RunStats stats{};
};

ScenarioConfig test_scenario(MacKind mac, std::uint64_t seed = 5) {
  ScenarioConfig config = grid3d_scenario(96, seed);
  config.mac = mac;
  config.sim_time = Duration::seconds(10);  // horizon 20 s, traffic from 10 s
  return config;
}

void expect_same_run(const RunOutput& full, const RunOutput& resumed) {
  EXPECT_EQ(full.digest, resumed.digest);
  EXPECT_NE(full.digest, HashTrace{}.digest()) << "trace never exercised";
  EXPECT_GT(full.stats.packets_offered, 0u) << "idle run proves nothing";
  EXPECT_EQ(full.stats.packets_offered, resumed.stats.packets_offered);
  EXPECT_EQ(full.stats.packets_delivered, resumed.stats.packets_delivered);
  EXPECT_EQ(full.stats.packets_dropped, resumed.stats.packets_dropped);
  EXPECT_EQ(full.stats.throughput_kbps, resumed.stats.throughput_kbps);
  EXPECT_EQ(full.stats.mean_latency_s, resumed.stats.mean_latency_s);
  EXPECT_EQ(full.stats.control_bits, resumed.stats.control_bits);
  EXPECT_EQ(full.stats.maintenance_bits, resumed.stats.maintenance_bits);
  EXPECT_EQ(full.stats.total_energy_j, resumed.stats.total_energy_j);
  EXPECT_EQ(full.stats.rx_collisions, resumed.stats.rx_collisions);
  EXPECT_EQ(full.stats.fairness_index, resumed.stats.fairness_index);
}

/// Runs `config` to the horizon capturing a checkpoint at `at`; returns
/// the uninterrupted output plus the snapshot.
std::pair<RunOutput, Checkpoint> capture(ScenarioConfig config, Time at) {
  HashTrace trace;
  config.trace = &trace;
  const CheckpointedRun run = run_scenario_with_checkpoint(config, at);
  return {RunOutput{trace.digest(), run.stats}, run.checkpoint};
}

/// Resumes `ckpt` over `base` (digest-verified replay) under `shards`.
RunOutput resume(const Checkpoint& ckpt, ScenarioConfig base, unsigned shards = 1) {
  HashTrace trace;
  base.trace = &trace;
  base.shards = shards;
  RunOutput out;
  out.stats = resume_scenario(ckpt, base);
  out.digest = trace.digest();
  return out;
}

TEST(CheckpointDeterminism, ResumeMatchesUninterruptedAcrossMacs) {
  for (const MacKind mac : {MacKind::kEwMac, MacKind::kCsMac, MacKind::kSFama}) {
    SCOPED_TRACE(to_string(mac));
    const ScenarioConfig config = test_scenario(mac);
    const auto [full, ckpt] = capture(config, Time::from_seconds(15));
    EXPECT_EQ(ckpt.at, Time::from_seconds(15));
    EXPECT_FALSE(ckpt.payload.empty());
    expect_same_run(full, resume(ckpt, test_scenario(mac)));
  }
}

TEST(CheckpointDeterminism, ResumeSurvivesContainerSerialization) {
  // Through the binary container, not just the in-memory struct.
  const ScenarioConfig config = test_scenario(MacKind::kEwMac, 3);
  const auto [full, ckpt] = capture(config, Time::from_seconds(14));
  std::ostringstream os;
  write_checkpoint(os, ckpt);
  std::istringstream is{os.str()};
  expect_same_run(full, resume(read_checkpoint(is), test_scenario(MacKind::kEwMac, 3)));
}

TEST(CheckpointDeterminism, ResumeAcrossShardCounts) {
  // Capture serially, resume sharded — and the reverse. The embedded
  // scenario carries the capture-time shard count; resume_scenario must
  // honor the caller's instead (the payload is K-invariant).
  const ScenarioConfig config = test_scenario(MacKind::kEwMac, 7);
  const auto [serial_full, serial_ckpt] = capture(config, Time::from_seconds(15));
  for (const unsigned shards : {2u, 4u}) {
    SCOPED_TRACE("resume shards = " + std::to_string(shards));
    expect_same_run(serial_full, resume(serial_ckpt, config, shards));
  }

  ScenarioConfig sharded = config;
  sharded.shards = 4;
  const auto [sharded_full, sharded_ckpt] = capture(sharded, Time::from_seconds(15));
  EXPECT_EQ(sharded_full.digest, serial_full.digest);
  expect_same_run(sharded_full, resume(sharded_ckpt, config, 1));
}

TEST(CheckpointDeterminism, CapturedPayloadIsShardInvariant) {
  // Not just the resumed results: the snapshot bytes themselves must be
  // identical whatever engine captured them.
  const ScenarioConfig config = test_scenario(MacKind::kCsMac, 11);
  const auto [full1, ckpt1] = capture(config, Time::from_seconds(15));
  for (const unsigned shards : {2u, 4u}) {
    SCOPED_TRACE("capture shards = " + std::to_string(shards));
    ScenarioConfig sharded = config;
    sharded.shards = shards;
    const auto [fullk, ckptk] = capture(sharded, Time::from_seconds(15));
    EXPECT_EQ(fullk.digest, full1.digest);
    EXPECT_EQ(ckptk.at, ckpt1.at);
    EXPECT_EQ(describe_payload_difference(ckpt1.payload, ckptk.payload), "");
  }
}

TEST(CheckpointDeterminism, TamperedPayloadFailsReplayVerification) {
  const ScenarioConfig config = test_scenario(MacKind::kEwMac, 13);
  auto [full, ckpt] = capture(config, Time::from_seconds(13));
  static_cast<void>(full);
  Checkpoint bad = ckpt;
  const std::size_t flip = bad.payload.size() / 2;
  bad.payload[flip] = static_cast<char>(bad.payload[flip] ^ 0x01);
  try {
    static_cast<void>(resume(bad, config));
    FAIL() << "tampered payload was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("checkpoint"), std::string::npos) << e.what();
  }
}

TEST(CheckpointDeterminism, EveryProtocolResumes) {
  for (const MacKind mac :
       {MacKind::kEwMac, MacKind::kSFama, MacKind::kRopa, MacKind::kCsMac, MacKind::kCwMac,
        MacKind::kSlottedAloha, MacKind::kMacaU}) {
    SCOPED_TRACE(to_string(mac));
    ScenarioConfig config = grid3d_scenario(64, 3);
    config.mac = mac;
    config.sim_time = Duration::seconds(8);
    config.traffic.offered_load_kbps = 2.0;  // enough offered packets in 8 s
    const auto [full, ckpt] = capture(config, Time::from_seconds(14));
    expect_same_run(full, resume(ckpt, config));
  }
}

TEST(CheckpointDeterminism, BatchWorkloadResumes) {
  // Batch staggers are drawn at construction; the replayed construction
  // must reproduce them exactly.
  ScenarioConfig config = test_scenario(MacKind::kEwMac, 17);
  config.traffic.mode = TrafficMode::kBatch;
  config.traffic.batch_packets = 24;
  const auto [full, ckpt] = capture(config, Time::from_seconds(13));
  expect_same_run(full, resume(ckpt, config));
}

TEST(CheckpointDeterminism, MobilityAndFaultScenarioResumes) {
  // The hard case: drifting nodes, a realized fault timeline with live
  // Gilbert-Elliott loss streams, and mid-run node deaths.
  ScenarioConfig config = random_volume_scenario(96, 11);
  config.mac = MacKind::kEwMac;
  config.sim_time = Duration::seconds(10);
  config.enable_mobility = true;
  config.fault.drift_ppm_stddev = 20.0;
  config.fault.outage_rate_per_hour = 12.0;
  config.fault.ge_p_bad = 0.05;
  config.fault.ge_loss_bad = 0.5;
  config.fault.storm_rate_per_hour = 4.0;
  config.node_failure_fraction = 0.1;
  const auto [full, ckpt] = capture(config, Time::from_seconds(16));
  expect_same_run(full, resume(ckpt, config));
}

}  // namespace
}  // namespace aquamac
