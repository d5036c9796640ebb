// aquamac_sim — run one UASN MAC scenario from the command line.
//
//   aquamac_sim --mac EW-MAC --nodes 80 --load 0.6 --seed 3
//   aquamac_sim --mac CS-MAC --reception sinr --trace run.csv
//   aquamac_sim --help
//
// Prints every RunStats field, one line each under its --stats-json key;
// optionally writes a per-event PHY + MAC trace (transmissions,
// receptions, FSM transitions, contention outcomes, extra-phase windows,
// neighbor updates) in CSV for external analysis/plotting.

#include <fstream>
#include <iomanip>
#include <iostream>

#include "harness/checkpoint_run.hpp"
#include "harness/config_io.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace aquamac;

/// Applies the compound flags that set several keys at once; like the
/// scenario flags, each only when given.
void apply_compound_flags(const CliParser& cli, ScenarioConfig& config) {
  if (cli.given("packet-bits")) {
    config.traffic.packet_bits_min = static_cast<std::uint32_t>(
        parse_scenario_uint("--packet-bits", cli.get("packet-bits"), UINT32_MAX));
    config.traffic.packet_bits_max = config.traffic.packet_bits_min;
  }
  if (cli.given("region")) {
    const std::string region = cli.get("region");
    if (region == "table2") {
      config.deployment = table2_deployment();
    } else if (region == "scaled") {
      config.deployment = paper_default_scenario().deployment;
    } else {
      throw std::invalid_argument("--region must be 'scaled' or 'table2'");
    }
  }
  if (cli.given("batch")) {
    config.traffic.mode = cli.get_bool("batch") ? TrafficMode::kBatch : TrafficMode::kPoisson;
  }
}

int run(const CliParser& cli) {
  // Precedence: a flag given on argv, then the --config file, then the
  // paper default.
  ScenarioConfig config = paper_default_scenario();
  if (cli.has("config")) config = load_scenario_file(cli.get("config"), config);
  apply_scenario_flags(cli, kSimTool, config);
  apply_compound_flags(cli, config);

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
    std::cout << describe_scenario(config) << "\n";
    stats = run_scenario_checkpointing(config);
  }

  // One line per RunStats field, in --stats-json key order.
  std::cout << "Results\n-------\n";
  RunStats::for_each_field(
      [](const char* name, const auto& field) {
        std::cout << std::left << std::setw(27) << name << field << '\n';
      },
      stats);
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
  std::vector<CliParser::FlagSpec> flags = aquamac::scenario_flag_specs(aquamac::kSimTool);
  flags.insert(flags.end(),
               {
                   {"packet-bits", "2048", "data payload size in bits (Table 2: 1024-4096)"},
                   {"region", "scaled", "deployment region: scaled (figure default) or table2 "
                                        "(paper-literal 1000 km^3)"},
                   {"batch", "false", "batch workload instead of Poisson (Figs. 8/9 mode)"},
                   {"trace", "", "write a per-event PHY + MAC trace CSV to this path"},
                   {"stats-json", "", "write the full RunStats metric block as one JSON "
                                      "object to this path"},
                   {"resume-from", "", "resume from this checkpoint file (digest-verified "
                                       "replay; the scenario comes from the snapshot)"},
                   {"config", "", "load the scenario from a key=value file; flags given on "
                                  "the command line override it"},
                   {"save-config", "", "write the effective scenario to this path"},
                   {"verbose", "false", "per-node debug logging to stderr"},
               });
  CliParser cli{"aquamac_sim", std::move(flags)};
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
