// aquamac_sim — run one UASN MAC scenario from the command line.
//
//   aquamac_sim --mac EW-MAC --nodes 80 --load 0.6 --seed 3
//   aquamac_sim --mac CS-MAC --reception sinr --trace run.csv
//   aquamac_sim --help
//
// Prints the full metric block; optionally writes a per-event PHY + MAC
// trace (transmissions, receptions, FSM transitions, contention
// outcomes, extra-phase windows, neighbor updates) in CSV for external
// analysis/plotting.

#include <algorithm>
#include <fstream>
#include <iostream>

#include "harness/checkpoint_run.hpp"
#include "harness/config_io.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace aquamac;

/// Writes the scenario flags into `config`: every flag, or with
/// `only_given` just those that appeared on argv.
void apply_scenario_flags(const CliParser& cli, bool only_given, ScenarioConfig& config) {
  const auto use = [&](const char* flag) { return !only_given || cli.given(flag); };
  if (use("mac")) config.mac = mac_kind_from_string(cli.get("mac"));
  if (use("nodes")) config.node_count = static_cast<std::size_t>(cli.get_int("nodes"));
  if (use("seed")) config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (use("time")) config.sim_time = Duration::from_seconds(cli.get_double("time"));
  if (use("load")) config.traffic.offered_load_kbps = cli.get_double("load");
  if (use("packet-bits")) {
    config.traffic.packet_bits_min = static_cast<std::uint32_t>(cli.get_int("packet-bits"));
    config.traffic.packet_bits_max = config.traffic.packet_bits_min;
  }
  if (use("mobility")) config.enable_mobility = cli.get_bool("mobility");
  if (use("clock-skew")) config.clock_offset_stddev_s = cli.get_double("clock-skew");
  if (use("multi-hop")) config.multi_hop = cli.get_bool("multi-hop");
  if (use("routing")) config.routing = routing_kind_from_string(cli.get("routing"));
  if (use("routing-beacon-s")) {
    config.routing_beacon = Duration::from_seconds(cli.get_double("routing-beacon-s"));
  }
  if (use("relay-retries")) {
    config.reliability.max_retries = static_cast<std::uint32_t>(cli.get_int("relay-retries"));
  }
  if (use("relay-queue")) {
    config.reliability.queue_limit = static_cast<std::uint32_t>(cli.get_int("relay-queue"));
  }
  if (use("kill-fraction")) config.node_failure_fraction = cli.get_double("kill-fraction");
  if (use("shards")) {
    config.shards = static_cast<unsigned>(std::max<std::int64_t>(1, cli.get_int("shards")));
  }

  if (use("region")) {
    const std::string region = cli.get("region");
    if (region == "table2") {
      config.deployment = table2_deployment();
    } else if (region == "scaled") {
      config.deployment = paper_default_scenario().deployment;
    } else {
      throw std::invalid_argument("--region must be 'scaled' or 'table2'");
    }
  }
  if (use("reception")) {
    const std::string reception = cli.get("reception");
    if (reception == "sinr") {
      config.reception = ReceptionKind::kSinrPer;
    } else if (reception == "deterministic") {
      config.reception = ReceptionKind::kDeterministic;
    } else {
      throw std::invalid_argument("--reception must be 'deterministic' or 'sinr'");
    }
  }
  if (use("propagation")) {
    const std::string propagation = cli.get("propagation");
    if (propagation == "bellhop") {
      config.propagation = PropagationKind::kBellhopLite;
    } else if (propagation == "straight") {
      config.propagation = PropagationKind::kStraightLine;
    } else {
      throw std::invalid_argument("--propagation must be 'straight' or 'bellhop'");
    }
  }
  if (use("batch")) {
    config.traffic.mode = cli.get_bool("batch") ? TrafficMode::kBatch : TrafficMode::kPoisson;
  }
  if (config.traffic.mode == TrafficMode::kBatch && use("batch-packets")) {
    config.traffic.batch_packets = static_cast<std::uint32_t>(cli.get_int("batch-packets"));
  }
}

int run(const CliParser& cli) {
  // Precedence: a flag given on argv, then the --config file, then the
  // flag's default.
  ScenarioConfig config = paper_default_scenario();
  apply_scenario_flags(cli, /*only_given=*/false, config);
  if (cli.has("config")) {
    config = load_scenario_file(cli.get("config"), config);
    apply_scenario_flags(cli, /*only_given=*/true, config);
  }

  std::ofstream trace_file;
  std::unique_ptr<CsvTrace> trace;
  if (cli.has("trace")) {
    trace_file.open(cli.get("trace"));
    if (!trace_file) throw std::invalid_argument("cannot open trace file " + cli.get("trace"));
    trace = std::make_unique<CsvTrace>(trace_file);
    config.trace = trace.get();
  }

  if (cli.get_bool("verbose")) config.logger = Logger::to_stderr(LogLevel::kDebug);

  if (cli.has("save-config")) {
    save_scenario_file(config, cli.get("save-config"));
    std::cout << "wrote scenario to " << cli.get("save-config") << "\n";
  }

  RunStats stats;
  if (cli.has("resume-from")) {
    // The snapshot embeds the exact capture scenario; the command line
    // contributes only execution-surface state (trace/log sinks, shards).
    const Checkpoint ckpt = read_checkpoint_file(cli.get("resume-from"));
    std::cout << "resuming from " << cli.get("resume-from") << " at " << ckpt.at.to_string()
              << " (digest-verified replay)\n\n";
    stats = resume_scenario(ckpt, config);
  } else {
    config.checkpoint_every = Duration::from_seconds(cli.get_double("checkpoint-every-s"));
    config.checkpoint_path = cli.get("checkpoint-out");
    std::cout << describe_scenario(config) << "\n";
    stats = run_scenario_checkpointing(config);
  }

  std::cout << "Results\n-------\n"
            << "throughput        " << stats.throughput_kbps << " kbps\n"
            << "offered load      " << stats.offered_load_kbps << " kbps\n"
            << "delivery ratio    " << stats.delivery_ratio << "\n"
            << "packets           " << stats.packets_delivered << " delivered, "
            << stats.packets_dropped << " dropped, " << stats.packets_offered << " offered\n"
            << "mean power        " << stats.mean_power_mw << " mW/node\n"
            << "total energy      " << stats.total_energy_j << " J\n"
            << "mean latency      " << stats.mean_latency_s << " s\n"
            << "execution time    " << stats.execution_time_s << " s\n"
            << "overhead bits     " << stats.overhead_bits << "\n"
            << "fairness (Jain)   " << stats.fairness_index << "\n"
            << "handshakes        " << stats.handshake_successes << "/"
            << stats.handshake_attempts << "\n"
            << "extra comms       " << stats.extra_successes << "/" << stats.extra_attempts
            << "\n"
            << "collisions        " << stats.rx_collisions << "\n";
  if (config.multi_hop) {
    std::cout << "e2e delivery      " << stats.e2e_delivery_ratio << " ("
              << stats.e2e_arrived_at_sink << "/" << stats.e2e_originated << ")\n"
              << "mean hops         " << stats.mean_hops << "\n"
              << "e2e latency       " << stats.mean_e2e_latency_s << " s\n"
              << "hop stretch       " << stats.hop_stretch << "\n"
              << "per-hop latency   " << stats.mean_per_hop_latency_s << " s\n"
              << "routing drops     " << stats.e2e_dropped_no_route << " no-route, "
              << stats.e2e_dropped_hop_limit << " hop-limit, " << stats.e2e_dropped_mac
              << " mac\n";
    if (config.reliability.enabled()) {
      std::cout << "relay ARQ         " << stats.e2e_retransmissions << " retransmissions, "
                << stats.e2e_failovers << " failovers, " << stats.e2e_duplicates_suppressed
                << " dups suppressed\n"
                << "dead letters      " << stats.e2e_dead_letter_exhausted << " exhausted, "
                << stats.e2e_dead_letter_overflow << " overflow, "
                << stats.e2e_dead_letter_no_route << " no-route\n"
                << "relay queue hw    " << stats.relay_queue_highwater << "\n";
    }
  }
  if (cli.has("stats-json")) {
    std::ofstream json_os{cli.get("stats-json")};
    if (!json_os) {
      std::cerr << "cannot open " << cli.get("stats-json") << " for writing\n";
      return 1;
    }
    JsonWriter json{json_os};
    write_run_stats_json(json, stats);
    json_os << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using aquamac::CliParser;
  CliParser cli{"aquamac_sim",
                {
                    {"mac", "EW-MAC", "protocol: EW-MAC, S-FAMA, ROPA, CS-MAC, CW-MAC, "
                                      "S-ALOHA, DOTS, MACA-U"},
                    {"nodes", "60", "number of sensors"},
                    {"load", "0.5", "network-aggregate offered load in kbps"},
                    {"packet-bits", "2048", "data payload size in bits (Table 2: 1024-4096)"},
                    {"time", "300", "traffic duration in seconds"},
                    {"seed", "1", "random seed (runs are reproducible per seed)"},
                    {"region", "scaled", "deployment region: scaled (figure default) or "
                                         "table2 (paper-literal 1000 km^3)"},
                    {"reception", "deterministic", "reception model: deterministic (Eq. 1) or "
                                                   "sinr"},
                    {"propagation", "straight", "propagation: straight (1.5 km/s) or bellhop "
                                                "(ray-bent)"},
                    {"mobility", "true", "drift nodes with the paper's three mobility models"},
                    {"clock-skew", "0", "per-node clock offset stddev in seconds (sync "
                                        "imperfection)"},
                    {"multi-hop", "false", "relay traffic to surface sinks (Fig.-1 mode)"},
                    {"routing", "tree", "multi-hop next-hop source: greedy (depth rule), "
                                        "tree (static shortest-delay) or dv "
                                        "(distance-vector; docs/routing.md)"},
                    {"routing-beacon-s", "10", "DV beacon period in seconds; beacons carry "
                                               "the sinks' sequence waves but contend like "
                                               "any other frame, so dense single-cluster "
                                               "deployments want this larger"},
                    {"relay-retries", "0", "hop-by-hop custody retransmission budget per "
                                           "node (0 = ARQ off; docs/reliability.md)"},
                    {"relay-queue", "32", "bound on packets in relay custody per node"},
                    {"kill-fraction", "0", "fraction of nodes that die 60 s into traffic"},
                    {"shards", "1", "conservative-PDES shards for intra-run parallelism "
                                    "(results are bit-identical for every value)"},
                    {"batch", "false", "batch workload instead of Poisson (Figs. 8/9 mode)"},
                    {"batch-packets", "40", "packets injected at start in batch mode"},
                    {"trace", "", "write a per-event PHY + MAC trace CSV to this path"},
                    {"stats-json", "", "write the full RunStats metric block as one JSON "
                                       "object to this path"},
                    {"checkpoint-every-s", "0", "snapshot the run to --checkpoint-out every N "
                                                "sim seconds (0 = off)"},
                    {"checkpoint-out", "", "checkpoint file path (overwritten each snapshot)"},
                    {"resume-from", "", "resume from this checkpoint file (digest-verified "
                                        "replay; the scenario comes from the snapshot)"},
                    {"config", "", "load the scenario from a key=value file; flags given "
                                  "on the command line override it"},
                    {"save-config", "", "write the effective scenario to this path"},
                    {"verbose", "false", "per-node debug logging to stderr"},
                }};
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
