#pragma once
// Scenario (de)serialization: a flat, commented `key = value` text format
// so experiments are shareable and replayable without recompiling.
//
// for_each_scenario_option is the one list of keys. save_scenario,
// load_scenario, the tools' scenario flags and applying a given flag are
// loops over it, and every value goes through one typed parser and
// formatter, so a file key, a CLI flag and the scenario text embedded in
// a checkpoint obey the same rules: unsigned integers in the member's
// range, finite doubles, durations within ±2^51 ns (exact as decimal
// seconds), booleans as true/false, 1/0, yes/no or on/off, enums by their
// to_string names, and strings without '#', line breaks or edge blanks.
// Errors are std::invalid_argument naming the key or flag; a silent typo
// would silently change an experiment. docs/simulator.md has the rules.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "util/cli.hpp"

namespace aquamac {

/// Which tools expose a scenario option as a command-line flag.
enum ScenarioTool : unsigned { kSimTool = 1, kCompareTool = 2 };

struct ScenarioOption {
  std::string_view key;
  /// save_scenario writes "# <group>" before the first key of a group.
  std::string_view group;
  unsigned tools{0};
  std::string_view help{};
  /// The flag's name when it is not the key itself.
  std::string_view alias{};
  /// Integer values below this load as it (`shards = 0` means 1).
  std::uint64_t at_least{0};

  [[nodiscard]] std::string_view flag() const { return alias.empty() ? key : alias; }
};

/// Calls fn(option, member...) for every scenario key, in save order, with
/// that key's member of each config (none, one or several).
template <typename Fn, typename... Config>
void for_each_scenario_option(Fn&& fn, Config&... c) {
  using O = ScenarioOption;
  constexpr unsigned kSim = kSimTool;
  constexpr unsigned kBoth = kSimTool | kCompareTool;
  constexpr std::string_view kRun{};
  constexpr std::string_view kChannel = "channel / physics";
  constexpr std::string_view kDeploy = "deployment / mobility";
  constexpr std::string_view kMac = "MAC";
  constexpr std::string_view kTraffic = "traffic";
  constexpr std::string_view kMultiHop = "multi-hop";
  constexpr std::string_view kRelay = "reliability (hop-by-hop custody ARQ; retries 0 = off)";
  constexpr std::string_view kFailure = "failure injection";
  constexpr std::string_view kFault = "fault injection (all zero = strict no-op)";
  constexpr std::string_view kHardening = "protocol hardening";
  constexpr std::string_view kCheckpoint = "checkpointing";

  fn(O{"mac", kRun, kSim,
       "protocol: EW-MAC, S-FAMA, ROPA, CS-MAC, CW-MAC, S-ALOHA, MACA-U"},
     c.mac...);
  fn(O{"node-count", kRun, kBoth, "number of sensors", "nodes"}, c.node_count...);
  fn(O{"seed", kRun, kBoth, "random seed (runs are reproducible per seed)"}, c.seed...);
  fn(O{"jobs", kRun, kCompareTool,
       "worker threads for the sweep (0 = all cores, 1 = serial; results are identical "
       "either way)"},
     c.jobs...);
  fn(O{"shards", kRun, kSim,
       "conservative-PDES shards for intra-run parallelism (results are bit-identical for "
       "every value)",
       {}, 1},
     c.shards...);
  fn(O{"sim-time-s", kRun, kSim, "traffic duration in seconds", "time"}, c.sim_time...);
  fn(O{"hello-window-s", kRun}, c.hello_window...);
  fn(O{"hello-rounds", kRun}, c.hello_rounds...);

  fn(O{"freq-khz", kChannel}, c.channel.freq_khz...);
  fn(O{"bandwidth-hz", kChannel}, c.channel.bandwidth_hz...);
  fn(O{"source-level-db", kChannel}, c.channel.source_level_db...);
  fn(O{"comm-range-m", kChannel}, c.channel.comm_range_m...);
  fn(O{"interference-range-m", kChannel}, c.channel.interference_range_m...);
  fn(O{"bit-rate-bps", kChannel}, c.bit_rate_bps...);
  fn(O{"sound-speed-mps", kChannel}, c.sound_speed_mps...);
  fn(O{"propagation", kChannel, kSim, "propagation: straight (1.5 km/s) or bellhop (ray-bent)"},
     c.propagation...);
  fn(O{"spreading", kChannel}, c.channel.spreading...);
  fn(O{"reception", kChannel, kSim, "reception model: deterministic (Eq. 1) or sinr"},
     c.reception...);
  fn(O{"shipping", kChannel}, c.channel.noise.shipping...);
  fn(O{"wind-mps", kChannel}, c.channel.noise.wind_mps...);

  fn(O{"deployment", kDeploy}, c.deployment.kind...);
  fn(O{"width-m", kDeploy}, c.deployment.width_m...);
  fn(O{"length-m", kDeploy}, c.deployment.length_m...);
  fn(O{"depth-m", kDeploy}, c.deployment.depth_m...);
  fn(O{"layer-spacing-m", kDeploy}, c.deployment.layer_spacing_m...);
  fn(O{"jitter-m", kDeploy}, c.deployment.jitter_m...);
  fn(O{"mobility", kDeploy, kSim, "drift nodes with the paper's three mobility models"},
     c.enable_mobility...);
  fn(O{"drift-mps", kDeploy}, c.mobility.speed_mps...);
  fn(O{"clock-skew-s", kDeploy, kSim,
       "per-node clock offset stddev in seconds (sync imperfection)", "clock-skew"},
     c.clock_offset_stddev_s...);

  fn(O{"control-bits", kMac}, c.mac_config.control_bits...);
  fn(O{"max-retries", kMac}, c.mac_config.max_retries...);
  fn(O{"cw-min-slots", kMac}, c.mac_config.cw_min_slots...);
  fn(O{"cw-max-slots", kMac}, c.mac_config.cw_max_slots...);
  fn(O{"queue-limit", kMac}, c.mac_config.queue_limit...);
  fn(O{"enable-extra", kMac}, c.mac_config.enable_extra...);
  fn(O{"enable-priority", kMac}, c.mac_config.enable_priority...);

  fn(O{"traffic-mode", kTraffic}, c.traffic.mode...);
  fn(O{"offered-load-kbps", kTraffic, kBoth, "network-aggregate offered load in kbps", "load"},
     c.traffic.offered_load_kbps...);
  fn(O{"packet-bits-min", kTraffic}, c.traffic.packet_bits_min...);
  fn(O{"packet-bits-max", kTraffic}, c.traffic.packet_bits_max...);
  fn(O{"batch-packets", kTraffic, kSim, "packets injected at start in batch mode"},
     c.traffic.batch_packets...);

  fn(O{"multi-hop", kMultiHop, kBoth, "relay traffic to surface sinks (Fig.-1 mode)"},
     c.multi_hop...);
  fn(O{"sink-fraction", kMultiHop}, c.sink_fraction...);
  fn(O{"hop-limit", kMultiHop}, c.hop_limit...);
  fn(O{"routing", kMultiHop, kSim,
       "multi-hop next-hop source: greedy (depth rule), tree (static shortest-delay) or dv "
       "(distance-vector; docs/routing.md)"},
     c.routing...);
  fn(O{"routing-beacon-s", kMultiHop, kSim,
       "DV beacon period in seconds; beacons carry the sinks' sequence waves but contend like "
       "any other frame, so dense single-cluster deployments want this larger"},
     c.routing_beacon...);
  fn(O{"greedy-blacklist", kMultiHop}, c.greedy_blacklist...);

  fn(O{"reliability-retries", kRelay, kSim,
       "hop-by-hop custody retransmission budget per node (0 = ARQ off; docs/reliability.md)",
       "relay-retries"},
     c.reliability.max_retries...);
  fn(O{"reliability-queue-limit", kRelay, kSim, "bound on packets in relay custody per node",
       "relay-queue"},
     c.reliability.queue_limit...);
  fn(O{"reliability-drop-policy", kRelay}, c.reliability.drop_policy...);
  fn(O{"reliability-backoff-base-s", kRelay}, c.reliability.backoff_base...);
  fn(O{"reliability-backoff-max-s", kRelay}, c.reliability.backoff_max...);

  fn(O{"node-failure-fraction", kFailure, kSim, "fraction of nodes that die 60 s into traffic",
       "kill-fraction"},
     c.node_failure_fraction...);
  fn(O{"node-failure-time-s", kFailure}, c.node_failure_time...);
  fn(O{"surface-echo", kFailure}, c.channel.enable_surface_echo...);
  fn(O{"reflection-loss-db", kFailure}, c.channel.surface_reflection_loss_db...);

  fn(O{"fault-drift-ppm", kFault}, c.fault.drift_ppm_stddev...);
  fn(O{"fault-drift-jitter-s", kFault}, c.fault.drift_jitter_stddev_s...);
  fn(O{"fault-jitter-interval-s", kFault}, c.fault.drift_jitter_interval...);
  fn(O{"fault-outage-per-hour", kFault}, c.fault.outage_rate_per_hour...);
  fn(O{"fault-outage-mean-s", kFault}, c.fault.outage_mean_duration...);
  fn(O{"fault-duty-cycle", kFault}, c.fault.duty_cycle...);
  fn(O{"fault-duty-period-s", kFault}, c.fault.duty_period...);
  fn(O{"fault-ge-p-bad", kFault}, c.fault.ge_p_bad...);
  fn(O{"fault-ge-p-good", kFault}, c.fault.ge_p_good...);
  fn(O{"fault-ge-loss-bad", kFault}, c.fault.ge_loss_bad...);
  fn(O{"fault-ge-loss-good", kFault}, c.fault.ge_loss_good...);
  fn(O{"fault-ge-step-s", kFault}, c.fault.ge_step...);
  fn(O{"fault-storm-per-hour", kFault}, c.fault.storm_rate_per_hour...);
  fn(O{"fault-storm-mean-s", kFault}, c.fault.storm_mean_duration...);
  fn(O{"fault-storm-loss", kFault}, c.fault.storm_loss_prob...);

  fn(O{"neighbor-max-age-s", kHardening}, c.mac_config.neighbor_max_age...);
  fn(O{"dead-neighbor-threshold", kHardening}, c.mac_config.dead_neighbor_threshold...);
  fn(O{"dead-probe-interval-s", kHardening}, c.mac_config.dead_probe_interval...);
  fn(O{"guard-slack-s", kHardening}, c.mac_config.guard_slack...);

  fn(O{"checkpoint-every-s", kCheckpoint, kSim,
       "snapshot the run to --checkpoint-out every N sim seconds (0 = off)"},
     c.checkpoint_every...);
  fn(O{"checkpoint-path", kCheckpoint, kSim, "checkpoint file path (overwritten each snapshot)",
       "checkpoint-out"},
     c.checkpoint_path...);
}

/// The unsigned-integer rule of scenario values, for flags that set
/// several keys at once. `what` names the flag in the error.
[[nodiscard]] std::uint64_t parse_scenario_uint(const std::string& what, const std::string& text,
                                                std::uint64_t max);

// Spellings of the scenario enums that have no home module of their own;
// like every scenario enum's to_string they return "?" past the last
// enumerator, which is where the parser stops listing names.
[[nodiscard]] std::string_view to_string(DeploymentKind kind);
[[nodiscard]] std::string_view to_string(PropagationKind kind);
[[nodiscard]] std::string_view to_string(ReceptionKind kind);
[[nodiscard]] std::string_view to_string(Spreading spreading);
[[nodiscard]] std::string_view to_string(TrafficMode mode);

/// Writes every option of `config`, grouped and commented. Throws
/// std::invalid_argument for a string or duration value the file could
/// not hold exactly.
void save_scenario(const ScenarioConfig& config, std::ostream& os);
void save_scenario_file(const ScenarioConfig& config, const std::string& path);

/// Parses a file produced by save_scenario (or hand-written). `base`
/// supplies every key the file does not mention; a key given twice is
/// an error naming both lines.
[[nodiscard]] ScenarioConfig load_scenario(std::istream& is, ScenarioConfig base);
[[nodiscard]] ScenarioConfig load_scenario_file(const std::string& path, ScenarioConfig base);

/// The CLI flags `tool` exposes, each defaulting to its
/// paper_default_scenario() value; the help line names the key it sets.
[[nodiscard]] std::vector<CliParser::FlagSpec> scenario_flag_specs(ScenarioTool tool);

/// Sets each of `tool`'s scenario flags that appeared on argv, and only
/// those, so a flag beats a loaded file and a file beats the defaults.
void apply_scenario_flags(const CliParser& cli, ScenarioTool tool, ScenarioConfig& config);

}  // namespace aquamac
