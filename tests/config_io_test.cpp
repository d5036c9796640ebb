#include "harness/config_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace aquamac {
namespace {

TEST(ConfigIo, RoundTripPreservesEveryScalar) {
  ScenarioConfig original = paper_default_scenario();
  original.mac = MacKind::kCsMac;
  original.node_count = 123;
  original.seed = 99;
  original.sim_time = Duration::from_seconds(123.5);
  original.channel.comm_range_m = 1'234.0;
  original.propagation = PropagationKind::kBellhopLite;
  original.reception = ReceptionKind::kSinrPer;
  original.deployment.kind = DeploymentKind::kLayeredColumn;
  original.deployment.depth_m = 5'432.0;
  original.enable_mobility = false;
  original.clock_offset_stddev_s = 0.25;
  original.mac_config.max_retries = 9;
  original.mac_config.enable_extra = false;
  original.traffic.mode = TrafficMode::kBatch;
  original.traffic.offered_load_kbps = 0.77;
  original.traffic.batch_packets = 55;
  original.multi_hop = true;
  original.sink_fraction = 0.2;
  original.hop_limit = 7;
  original.routing = RoutingKind::kDv;
  original.routing_beacon = Duration::from_seconds(17.5);

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, paper_default_scenario());

  EXPECT_EQ(loaded.mac, original.mac);
  EXPECT_EQ(loaded.node_count, original.node_count);
  EXPECT_EQ(loaded.seed, original.seed);
  EXPECT_EQ(loaded.sim_time, original.sim_time);
  EXPECT_DOUBLE_EQ(loaded.channel.comm_range_m, original.channel.comm_range_m);
  EXPECT_EQ(loaded.propagation, original.propagation);
  EXPECT_EQ(loaded.reception, original.reception);
  EXPECT_EQ(loaded.deployment.kind, original.deployment.kind);
  EXPECT_DOUBLE_EQ(loaded.deployment.depth_m, original.deployment.depth_m);
  EXPECT_EQ(loaded.enable_mobility, original.enable_mobility);
  EXPECT_DOUBLE_EQ(loaded.clock_offset_stddev_s, original.clock_offset_stddev_s);
  EXPECT_EQ(loaded.mac_config.max_retries, original.mac_config.max_retries);
  EXPECT_EQ(loaded.mac_config.enable_extra, original.mac_config.enable_extra);
  EXPECT_EQ(loaded.traffic.mode, original.traffic.mode);
  EXPECT_DOUBLE_EQ(loaded.traffic.offered_load_kbps, original.traffic.offered_load_kbps);
  EXPECT_EQ(loaded.traffic.batch_packets, original.traffic.batch_packets);
  EXPECT_EQ(loaded.multi_hop, original.multi_hop);
  EXPECT_DOUBLE_EQ(loaded.sink_fraction, original.sink_fraction);
  EXPECT_EQ(loaded.hop_limit, original.hop_limit);
  EXPECT_EQ(loaded.routing, original.routing);
  EXPECT_EQ(loaded.routing_beacon, original.routing_beacon);
}

TEST(ConfigIo, LoadedScenarioRunsIdenticallyToOriginal) {
  ScenarioConfig original = small_test_scenario();
  original.mac = MacKind::kEwMac;
  original.seed = 5;

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());

  const RunStats a = run_scenario(original);
  const RunStats b = run_scenario(loaded);
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.bits_delivered, b.bits_delivered);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
}

TEST(ConfigIo, PartialFileKeepsBaseDefaults) {
  std::stringstream buffer{"mac = S-FAMA\nnode-count = 7\n"};
  ScenarioConfig base = small_test_scenario();
  base.traffic.offered_load_kbps = 0.42;
  const ScenarioConfig loaded = load_scenario(buffer, base);
  EXPECT_EQ(loaded.mac, MacKind::kSFama);
  EXPECT_EQ(loaded.node_count, 7u);
  EXPECT_DOUBLE_EQ(loaded.traffic.offered_load_kbps, 0.42) << "untouched";
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer{
      "# a comment\n"
      "\n"
      "seed = 11   # trailing comment\n"
      "   mobility = false   \n"};
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());
  EXPECT_EQ(loaded.seed, 11u);
  EXPECT_FALSE(loaded.enable_mobility);
}

TEST(ConfigIo, UnknownKeyThrows) {
  std::stringstream buffer{"nodes = 60\n"};  // correct key is node-count
  EXPECT_THROW((void)load_scenario(buffer, small_test_scenario()), std::invalid_argument);
}

TEST(ConfigIo, RetiredKeysAreRefusedNamingTheKey) {
  // The channel's A/B switches, the neighbor-delay EWMA and the failover
  // switch are gone: a file (or a checkpoint's embedded scenario) that
  // still sets one must fail naming it, not load with the key ignored.
  for (const std::string key :
       {"cache-paths", "spatial-index", "neighbor-ewma", "reliability-failover"}) {
    std::stringstream buffer{"node-count = 12\n" + key + " = true\n"};
    try {
      (void)load_scenario(buffer, small_test_scenario());
      ADD_FAILURE() << key << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("'" + key + "'"), std::string::npos) << e.what();
    }
  }
}

TEST(ConfigIo, MalformedValueThrowsWithLineNumber) {
  std::stringstream buffer{"seed = eleven\n"};
  try {
    (void)load_scenario(buffer, small_test_scenario());
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("seed"), std::string::npos);
  }
}

TEST(ConfigIo, MissingEqualsThrows) {
  std::stringstream buffer{"just some words\n"};
  EXPECT_THROW((void)load_scenario(buffer, small_test_scenario()), std::invalid_argument);
}

TEST(ConfigIo, FaultAndHardeningKeysRoundTrip) {
  ScenarioConfig original = small_test_scenario();
  original.fault.drift_ppm_stddev = 1'234.0;
  original.fault.drift_jitter_stddev_s = 0.0025;
  original.fault.drift_jitter_interval = Duration::from_seconds(7.5);
  original.fault.outage_rate_per_hour = 42.0;
  original.fault.outage_mean_duration = Duration::from_seconds(12.5);
  original.fault.duty_cycle = 0.85;
  original.fault.duty_period = Duration::from_seconds(45.0);
  original.fault.ge_p_bad = 0.07;
  original.fault.ge_p_good = 0.21;
  original.fault.ge_loss_bad = 0.88;
  original.fault.ge_loss_good = 0.02;
  original.fault.ge_step = Duration::from_seconds(0.25);
  original.fault.storm_rate_per_hour = 3.5;
  original.fault.storm_mean_duration = Duration::from_seconds(8.0);
  original.fault.storm_loss_prob = 0.95;
  original.mac_config.neighbor_max_age = Duration::from_seconds(60.0);
  original.mac_config.dead_neighbor_threshold = 5;
  original.mac_config.dead_probe_interval = Duration::from_seconds(25.0);
  original.mac_config.guard_slack = Duration::from_seconds(0.015);

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());

  EXPECT_DOUBLE_EQ(loaded.fault.drift_ppm_stddev, original.fault.drift_ppm_stddev);
  EXPECT_DOUBLE_EQ(loaded.fault.drift_jitter_stddev_s, original.fault.drift_jitter_stddev_s);
  EXPECT_EQ(loaded.fault.drift_jitter_interval, original.fault.drift_jitter_interval);
  EXPECT_DOUBLE_EQ(loaded.fault.outage_rate_per_hour, original.fault.outage_rate_per_hour);
  EXPECT_EQ(loaded.fault.outage_mean_duration, original.fault.outage_mean_duration);
  EXPECT_DOUBLE_EQ(loaded.fault.duty_cycle, original.fault.duty_cycle);
  EXPECT_EQ(loaded.fault.duty_period, original.fault.duty_period);
  EXPECT_DOUBLE_EQ(loaded.fault.ge_p_bad, original.fault.ge_p_bad);
  EXPECT_DOUBLE_EQ(loaded.fault.ge_p_good, original.fault.ge_p_good);
  EXPECT_DOUBLE_EQ(loaded.fault.ge_loss_bad, original.fault.ge_loss_bad);
  EXPECT_DOUBLE_EQ(loaded.fault.ge_loss_good, original.fault.ge_loss_good);
  EXPECT_EQ(loaded.fault.ge_step, original.fault.ge_step);
  EXPECT_DOUBLE_EQ(loaded.fault.storm_rate_per_hour, original.fault.storm_rate_per_hour);
  EXPECT_EQ(loaded.fault.storm_mean_duration, original.fault.storm_mean_duration);
  EXPECT_DOUBLE_EQ(loaded.fault.storm_loss_prob, original.fault.storm_loss_prob);
  EXPECT_EQ(loaded.mac_config.neighbor_max_age, original.mac_config.neighbor_max_age);
  EXPECT_EQ(loaded.mac_config.dead_neighbor_threshold,
            original.mac_config.dead_neighbor_threshold);
  EXPECT_EQ(loaded.mac_config.dead_probe_interval, original.mac_config.dead_probe_interval);
  EXPECT_EQ(loaded.mac_config.guard_slack, original.mac_config.guard_slack);
  EXPECT_TRUE(loaded.fault.enabled());
}

TEST(ConfigIo, ReliabilityKeysRoundTrip) {
  ScenarioConfig original = small_test_scenario();
  original.reliability.max_retries = 4;
  original.reliability.queue_limit = 12;
  original.reliability.drop_policy = RelayDropPolicy::kOldestFirst;
  original.reliability.backoff_base = Duration::from_seconds(7.5);
  original.reliability.backoff_max = Duration::from_seconds(95.0);
  original.greedy_blacklist = false;

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());

  EXPECT_EQ(loaded.reliability.max_retries, original.reliability.max_retries);
  EXPECT_EQ(loaded.reliability.queue_limit, original.reliability.queue_limit);
  EXPECT_EQ(loaded.reliability.drop_policy, original.reliability.drop_policy);
  EXPECT_EQ(loaded.reliability.backoff_base, original.reliability.backoff_base);
  EXPECT_EQ(loaded.reliability.backoff_max, original.reliability.backoff_max);
  EXPECT_FALSE(loaded.greedy_blacklist);
  EXPECT_TRUE(loaded.reliability.enabled());
}

TEST(ConfigIo, DefaultSaveKeepsFaultsDisabled) {
  // A default round-trip must not accidentally enable fault injection —
  // the strict no-op guarantee has to survive save/load.
  std::stringstream buffer;
  save_scenario(small_test_scenario(), buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());
  EXPECT_FALSE(loaded.fault.enabled());
  EXPECT_TRUE(loaded.mac_config.guard_slack.is_zero());
  EXPECT_EQ(loaded.mac_config.dead_neighbor_threshold, 0u);
}

TEST(ConfigIo, UnknownFaultKeyThrows) {
  std::stringstream buffer{"fault-drip-ppm = 100\n"};  // typo for fault-drift-ppm
  EXPECT_THROW((void)load_scenario(buffer, small_test_scenario()), std::invalid_argument);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/aquamac_scenario_test.cfg";
  ScenarioConfig original = small_test_scenario();
  original.seed = 321;
  save_scenario_file(original, path);
  const ScenarioConfig loaded = load_scenario_file(path, small_test_scenario());
  EXPECT_EQ(loaded.seed, 321u);
  EXPECT_THROW((void)load_scenario_file("/nonexistent/path.cfg", small_test_scenario()),
               std::invalid_argument);
}

TEST(ConfigIo, DoublesRoundTripExactly) {
  // save_scenario must emit max_digits10 significant digits: the stream
  // default of 6 silently perturbed every non-round double (sim-time-s,
  // freq-khz, fault rates) on save -> load, so a "replayed" scenario was
  // not the scenario that ran.
  ScenarioConfig original = small_test_scenario();
  original.sim_time = Duration::from_seconds(123.456789012345);
  original.channel.freq_khz = 10.123456789012345;
  original.traffic.offered_load_kbps = 1.0 / 3.0;
  original.fault.storm_loss_prob = 0.123456789012345;

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());

  EXPECT_EQ(loaded.sim_time, original.sim_time) << "lost nanoseconds";
  EXPECT_EQ(loaded.channel.freq_khz, original.channel.freq_khz) << "bit-exact, not approx";
  EXPECT_EQ(loaded.traffic.offered_load_kbps, original.traffic.offered_load_kbps);
  EXPECT_EQ(loaded.fault.storm_loss_prob, original.fault.storm_loss_prob);
}

TEST(ConfigIo, NegativeIntegerRejected) {
  // std::stoull accepts a leading '-' by wrapping modulo 2^64; the parser
  // must reject it before "node-count = -1" becomes 2^64 - 1 nodes.
  for (const std::string line : {"node-count = -1\n", "seed = -3\n", "batch-packets = -7\n"}) {
    SCOPED_TRACE(line);
    std::stringstream buffer{line};
    try {
      (void)load_scenario(buffer, small_test_scenario());
      FAIL() << "expected throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("expected an integer"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigIo, SavedKeysAndAcceptedKeysMatchExactly) {
  // Save and load are both loops over for_each_scenario_option, so the
  // saved keys must be exactly the option list, in order, once each, and
  // the checkpoint knobs are part of that contract.
  std::stringstream buffer;
  save_scenario(small_test_scenario(), buffer);

  std::vector<std::string> written;
  std::string line;
  while (std::getline(buffer, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t", eq - 1);
    const auto begin = line.find_first_not_of(" \t");
    written.push_back(line.substr(begin, end - begin + 1));
  }
  EXPECT_EQ(written.size(), std::set<std::string>(written.begin(), written.end()).size())
      << "duplicate keys written";

  std::vector<std::string> listed;
  for_each_scenario_option([&](const ScenarioOption& option) { listed.emplace_back(option.key); });
  EXPECT_EQ(written, listed);

  EXPECT_NE(std::find(written.begin(), written.end(), "checkpoint-every-s"), written.end());
  EXPECT_NE(std::find(written.begin(), written.end(), "checkpoint-path"), written.end());
}

TEST(ConfigIo, CheckpointKnobsRoundTrip) {
  ScenarioConfig original = small_test_scenario();
  original.checkpoint_every = Duration::from_seconds(2.5);
  original.checkpoint_path = "/tmp/run.ckpt";
  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());
  EXPECT_EQ(loaded.checkpoint_every, original.checkpoint_every);
  EXPECT_EQ(loaded.checkpoint_path, original.checkpoint_path);
}

// ---- One rule set for files, flags and checkpoint text --------------------

/// Loads `text` over the paper defaults and returns the error message, or
/// "" when it loads.
std::string load_error(const std::string& text) {
  std::stringstream buffer{text};
  try {
    (void)load_scenario(buffer, paper_default_scenario());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Applies `args` as `tool`'s flags over `config`, the way the tools do.
ScenarioConfig apply_flags(ScenarioTool tool, ScenarioConfig config,
                           std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  CliParser cli{"prog", scenario_flag_specs(tool)};
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  apply_scenario_flags(cli, tool, config);
  return config;
}

/// The error applying `args` raises, or "" when they apply.
std::string flag_error(ScenarioTool tool, std::vector<std::string> args) {
  try {
    (void)apply_flags(tool, paper_default_scenario(), std::move(args));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigIo, FileRejectsValuesThatDoNotFit) {
  struct Case {
    const char* line;
    const char* key;
  };
  for (const Case& c : {
           Case{"hop-limit = 300", "hop-limit"},
           Case{"reliability-queue-limit = 4294967296", "reliability-queue-limit"},
           Case{"seed = 18446744073709551616", "seed"},
           Case{"node-count = 1.5", "node-count"},
           Case{"sim-time-s = nan", "sim-time-s"},
           Case{"sim-time-s = inf", "sim-time-s"},
           Case{"freq-khz = -inf", "freq-khz"},
           Case{"offered-load-kbps = 1e999", "offered-load-kbps"},
           Case{"guard-slack-s = 1e10", "guard-slack-s"},
           Case{"sim-time-s = -9.3e9", "sim-time-s"},
           Case{"mobility = maybe", "mobility"},
           Case{"mac = ew-mac", "mac"},
           Case{"routing = ", "routing"},
       }) {
    SCOPED_TRACE(c.line);
    const std::string error = load_error(std::string{c.line} + "\n");
    ASSERT_FALSE(error.empty()) << "loaded";
    EXPECT_NE(error.find(std::string{"'"} + c.key + "'"), std::string::npos) << error;
  }
}

TEST(ConfigIo, FlagsRejectValuesThatDoNotFit) {
  struct Case {
    ScenarioTool tool;
    const char* flag;
    const char* value;
  };
  for (const Case& c : {
           Case{kSimTool, "nodes", "-1"},
           Case{kSimTool, "relay-queue", "-1"},
           Case{kSimTool, "relay-queue", "4294967296"},
           Case{kSimTool, "shards", "-3"},
           Case{kSimTool, "time", "nan"},
           Case{kSimTool, "time", "inf"},
           Case{kSimTool, "time", "1e300"},
           Case{kSimTool, "clock-skew", "nan"},
           Case{kSimTool, "mobility", "maybe"},
           Case{kSimTool, "checkpoint-out", "run#1.ckpt"},
           Case{kCompareTool, "jobs", "-2"},
           Case{kCompareTool, "load", "inf"},
       }) {
    SCOPED_TRACE(std::string{c.flag} + " " + c.value);
    const std::string error = flag_error(c.tool, {std::string{"--"} + c.flag, c.value});
    ASSERT_FALSE(error.empty()) << "applied";
    EXPECT_NE(error.find(std::string{"--"} + c.flag), std::string::npos) << error;
  }
}

TEST(ConfigIo, ShardsZeroMeansOneOnBothPaths) {
  std::stringstream buffer{"shards = 0\n"};
  EXPECT_EQ(load_scenario(buffer, paper_default_scenario()).shards, 1u);
  EXPECT_EQ(apply_flags(kSimTool, paper_default_scenario(), {"--shards", "0"}).shards, 1u);
}

TEST(ConfigIo, BooleansAcceptEverySpellingOnBothPaths) {
  for (const auto& [text, expected] : std::vector<std::pair<std::string, bool>>{
           {"true", true}, {"1", true}, {"yes", true}, {"on", true},
           {"false", false}, {"0", false}, {"no", false}, {"off", false}}) {
    SCOPED_TRACE(text);
    std::stringstream buffer{"multi-hop = " + text + "\n"};
    EXPECT_EQ(load_scenario(buffer, paper_default_scenario()).multi_hop, expected);
    EXPECT_EQ(apply_flags(kSimTool, paper_default_scenario(), {"--multi-hop", text}).multi_hop,
              expected);
  }
}

TEST(ConfigIo, SaveRejectsStringsThatCannotRoundTrip) {
  // A '#' would start a comment on load: "run#1.ckpt" reloaded as "run".
  for (const std::string path : {"run#1.ckpt", "a\nb", "a\rb", " lead", "trail ", "\ttab"}) {
    SCOPED_TRACE(path);
    ScenarioConfig config = small_test_scenario();
    config.checkpoint_path = path;
    std::ostringstream os;
    EXPECT_THROW(save_scenario(config, os), std::invalid_argument);
    EXPECT_TRUE(os.str().empty()) << "a failed save wrote a partial scenario";
  }
  ScenarioConfig config = small_test_scenario();
  config.checkpoint_path = "dir with spaces/a=b.ckpt";
  std::stringstream buffer;
  save_scenario(config, buffer);
  EXPECT_EQ(load_scenario(buffer, paper_default_scenario()).checkpoint_path,
            config.checkpoint_path);
}

TEST(ConfigIo, KeyGivenTwiceIsRejectedNamingBothLines) {
  // Keeping the last value would silently run EW-MAC here.
  const std::string error =
      load_error("mac = S-FAMA\n# edited by hand\nnode-count = 12\nmac = EW-MAC\n");
  ASSERT_FALSE(error.empty()) << "loaded";
  EXPECT_NE(error.find("'mac'"), std::string::npos) << error;
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(ConfigIo, DurationsBeyondTheExactRangeAreRefused) {
  // Decimal seconds reload the same nanosecond count only within 2^51 ns.
  ScenarioConfig config = small_test_scenario();
  config.sim_time = Duration::nanoseconds(std::int64_t{1} << 52);
  std::ostringstream os;
  try {
    save_scenario(config, os);
    ADD_FAILURE() << "saved a duration that does not round-trip";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("'sim-time-s'"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(os.str().empty()) << "a failed save wrote a partial scenario";

  const std::string error = load_error("sim-time-s = 4503599.627370496\n");  // 2^52 ns
  ASSERT_FALSE(error.empty()) << "loaded";
  EXPECT_NE(error.find("'sim-time-s'"), std::string::npos) << error;

  // The edge itself still round-trips.
  config.sim_time = Duration::nanoseconds(-(std::int64_t{1} << 51));
  std::stringstream buffer;
  save_scenario(config, buffer);
  EXPECT_EQ(load_scenario(buffer, paper_default_scenario()).sim_time, config.sim_time);
}

// ---- Property tests over the option list -----------------------------------

template <typename E>
int enumerator_count() {
  int count = 0;
  while (to_string(static_cast<E>(count)) != "?") ++count;
  return count;
}

/// A random value of the member's type, within the range its key
/// accepts and round-trips: every enumerator, integers over the full
/// range, finite doubles, durations within +-2^51 ns, storable strings.
template <typename T>
void draw(Rng& rng, const ScenarioOption& option, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = (rng() & 1) != 0;
  } else if constexpr (std::is_enum_v<T>) {
    value = static_cast<T>(rng() % static_cast<std::uint64_t>(enumerator_count<T>()));
  } else if constexpr (std::is_unsigned_v<T>) {
    const std::uint64_t lo = option.at_least;
    const std::uint64_t hi = std::numeric_limits<T>::max();
    const std::uint64_t pick = rng() % 4;
    const std::uint64_t span = hi - lo;
    const std::uint64_t offset = span == std::numeric_limits<std::uint64_t>::max()
                                     ? rng()
                                     : rng() % (span + 1);
    value = static_cast<T>(pick == 0 ? lo : pick == 1 ? hi : lo + offset);
  } else if constexpr (std::is_same_v<T, double>) {
    do {
      value = std::bit_cast<double>(rng());
    } while (!std::isfinite(value));
    if (rng() % 4 == 0) value = static_cast<double>(rng() % 1000) / 8.0;  // short decimals
  } else if constexpr (std::is_same_v<T, Duration>) {
    // Decimal seconds at max_digits10 reload the same nanosecond count
    // only below 2^51 ns (about 26 days); beyond that some reload 1 ns off.
    constexpr std::uint64_t kSpan = std::uint64_t{1} << 52;  // [-2^51, 2^51]
    value = Duration::nanoseconds(static_cast<std::int64_t>(rng() % (kSpan + 1)) -
                                  (std::int64_t{1} << 51));
  } else {
    static_assert(std::is_same_v<T, std::string>);
    static constexpr std::string_view kChars = "abcXYZ019./_-=:@ \t~";
    value.clear();
    const std::size_t length = rng() % 12;
    for (std::size_t i = 0; i < length; ++i) value += kChars[rng() % kChars.size()];
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) value.erase(0, 1);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) value.pop_back();
  }
}

ScenarioConfig random_config(Rng& rng) {
  ScenarioConfig config = paper_default_scenario();
  for_each_scenario_option([&](const ScenarioOption& option, auto& value) {
    draw(rng, option, value);
  }, config);
  return config;
}

std::string saved(const ScenarioConfig& config) {
  std::ostringstream os;
  save_scenario(config, os);
  return os.str();
}

TEST(ConfigIo, RandomConfigsRoundTripByteEqual) {
  Rng rng{20'260'419};
  for (int i = 0; i < 250; ++i) {
    SCOPED_TRACE(i);
    const ScenarioConfig original = random_config(rng);
    const std::string text = saved(original);
    std::stringstream buffer{text};
    const ScenarioConfig loaded = load_scenario(buffer, paper_default_scenario());
    ASSERT_EQ(saved(loaded), text);
    for_each_scenario_option(
        [](const ScenarioOption& option, const auto& a, const auto& b) {
          EXPECT_TRUE(a == b) << option.key;
        },
        original, loaded);
  }
}

/// The saved text of `key` in `config`.
std::string value_of(const ScenarioConfig& config, std::string_view key) {
  std::istringstream lines{saved(config)};
  const std::string prefix = std::string{key} + " = ";
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with(prefix)) return line.substr(prefix.size());
  }
  ADD_FAILURE() << "no saved line for " << key;
  return "";
}

TEST(ConfigIo, GivenFlagBeatsFileAndFileBeatsDefault) {
  // The tools' precedence: paper default, then --config, then each flag
  // given on argv.
  Rng rng{7};
  const ScenarioConfig defaults = paper_default_scenario();
  ScenarioConfig drawn;
  int checked = 0;
  for (const ScenarioTool tool : {kSimTool, kCompareTool}) {
    for_each_scenario_option([&](const ScenarioOption& option, auto& scratch) {
      if ((option.tools & tool) == 0) return;
      SCOPED_TRACE(option.flag());
      // in_file differs from the default and on_argv from in_file; a
      // boolean has no third value, so the flag-only case reuses in_file.
      const std::string fallback = value_of(defaults, option.key);
      std::string in_file = fallback;
      for (int tries = 0; tries < 100 && in_file == fallback; ++tries) {
        draw(rng, option, scratch);
        in_file = value_of(drawn, option.key);
      }
      std::string on_argv = in_file;
      for (int tries = 0; tries < 100 && on_argv == in_file; ++tries) {
        draw(rng, option, scratch);
        on_argv = value_of(drawn, option.key);
      }
      ASSERT_NE(in_file, fallback);
      ASSERT_NE(on_argv, in_file);

      const auto resolve = [&](bool with_file, const std::string* flag_value) {
        std::stringstream buffer{with_file ? std::string{option.key} + " = " + in_file : ""};
        std::vector<std::string> args;
        if (flag_value != nullptr) {
          args.push_back("--" + std::string{option.flag()} + "=" + *flag_value);
        }
        return value_of(apply_flags(tool, load_scenario(buffer, defaults), args), option.key);
      };
      EXPECT_EQ(resolve(false, nullptr), fallback);
      EXPECT_EQ(resolve(true, nullptr), in_file);
      EXPECT_EQ(resolve(false, &in_file), in_file);
      EXPECT_EQ(resolve(true, &on_argv), on_argv);
      ++checked;
    }, drawn);
  }
  EXPECT_EQ(checked, 24) << "19 aquamac_sim flags + 5 aquamac_compare flags";
}

TEST(ConfigIo, MutationFuzzLoadsOrThrowsInvalidArgument) {
  // Seeded mutations of saved scenarios: every one must load or throw
  // std::invalid_argument, and whatever loads must save again.
  Rng rng{42};
  std::vector<std::string> seeds{saved(paper_default_scenario()), saved(small_test_scenario())};
  for (int i = 0; i < 8; ++i) seeds.push_back(saved(random_config(rng)));

  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < 5'000; ++i) {
    std::string text = seeds[rng() % seeds.size()];
    for (std::uint64_t edits = 1 + rng() % 3; edits > 0 && !text.empty(); --edits) {
      const std::size_t at = rng() % text.size();
      switch (rng() % 5) {
        case 0: text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8))); break;
        case 1: text.insert(at, 1, static_cast<char>(rng() % 256)); break;
        case 2: text.erase(at, 1 + rng() % 16); break;
        case 3: {
          const std::size_t begin = text.rfind('\n', at) == std::string::npos
                                        ? 0
                                        : text.rfind('\n', at) + 1;
          const std::size_t end = text.find('\n', at);
          const std::string line =
              text.substr(begin, end == std::string::npos ? std::string::npos : end - begin + 1);
          text.insert(begin, line);
          break;
        }
        default: text.resize(at); break;
      }
    }
    try {
      std::stringstream buffer{text};
      const ScenarioConfig config = load_scenario(buffer, paper_default_scenario());
      (void)saved(config);
      ++loaded;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw " << e.what() << " for:\n" << text;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace aquamac
