// aquamac_compare — sweep one parameter across protocols and print (or
// CSV-dump) any metric: the generic version of the per-figure benches.
//
//   aquamac_compare --x load --values 0.2,0.4,0.6,0.8 --metric throughput
//   aquamac_compare --x nodes --values 60,100,140 --metric power --reps 5
//   aquamac_compare --metric overhead --normalize --csv out.csv

#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/config_io.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "util/cli.hpp"

namespace {

using namespace aquamac;

std::vector<double> parse_values(const std::string& csv) {
  std::vector<double> values;
  std::stringstream ss{csv};
  std::string token;
  while (std::getline(ss, token, ',')) values.push_back(std::stod(token));
  if (values.empty()) throw std::invalid_argument("--values is empty");
  return values;
}

std::vector<MacKind> parse_protocols(const std::string& csv) {
  if (csv == "paper") {
    const auto& set = paper_comparison_set();
    return {set.begin(), set.end()};
  }
  std::vector<MacKind> kinds;
  std::stringstream ss{csv};
  std::string token;
  while (std::getline(ss, token, ',')) kinds.push_back(mac_kind_from_string(token));
  return kinds;
}

MetricFn metric_by_name(const std::string& name) {
  if (name == "throughput") return [](const MeanStats& m) { return m.throughput_kbps; };
  if (name == "delivery") return [](const MeanStats& m) { return m.delivery_ratio; };
  if (name == "power") return [](const MeanStats& m) { return m.mean_power_mw; };
  if (name == "energy") return [](const MeanStats& m) { return m.total_energy_j; };
  if (name == "overhead") return [](const MeanStats& m) { return m.overhead_bits; };
  if (name == "efficiency") return [](const MeanStats& m) { return m.efficiency_raw; };
  if (name == "latency") return [](const MeanStats& m) { return m.mean_latency_s; };
  if (name == "exectime") return [](const MeanStats& m) { return m.execution_time_s; };
  if (name == "collisions") return [](const MeanStats& m) { return m.rx_collisions; };
  if (name == "extras") return [](const MeanStats& m) { return m.extra_successes; };
  if (name == "fairness") return [](const MeanStats& m) { return m.fairness_index; };
  if (name == "e2e-delivery") return [](const MeanStats& m) { return m.e2e_delivery_ratio; };
  if (name == "hops") return [](const MeanStats& m) { return m.mean_hops; };
  if (name == "e2e-latency") return [](const MeanStats& m) { return m.mean_e2e_latency_s; };
  throw std::invalid_argument("unknown --metric " + name);
}

int run(const CliParser& cli) {
  ScenarioConfig base = paper_default_scenario();
  apply_scenario_flags(cli, kCompareTool, base);

  const std::vector<double> xs = parse_values(cli.get("values"));
  const std::vector<MacKind> protocols = parse_protocols(cli.get("protocols"));

  const std::string axis = cli.get("x");
  ConfigSetter setter;
  if (axis == "load") {
    setter = [](ScenarioConfig& c, double x) { c.traffic.offered_load_kbps = x; };
  } else if (axis == "nodes") {
    setter = [](ScenarioConfig& c, double x) { c.node_count = static_cast<std::size_t>(x); };
  } else if (axis == "packet-bits") {
    setter = [](ScenarioConfig& c, double x) {
      c.traffic.packet_bits_min = static_cast<std::uint32_t>(x);
      c.traffic.packet_bits_max = static_cast<std::uint32_t>(x);
    };
  } else if (axis == "range") {
    setter = [](ScenarioConfig& c, double x) {
      c.channel.comm_range_m = x;
      c.channel.interference_range_m = x;
    };
  } else {
    throw std::invalid_argument("--x must be load, nodes, packet-bits, or range");
  }

  const auto reps = static_cast<unsigned>(cli.get_int("reps"));
  const SweepResult sweep = run_sweep(base, protocols, xs, setter, reps);

  const MetricFn metric = metric_by_name(cli.get("metric"));
  const Table table = cli.get_bool("normalize")
                          ? sweep_table_normalized(sweep, axis, metric)
                          : sweep_table(sweep, axis, metric);

  if (cli.has("csv")) {
    std::ofstream out{cli.get("csv")};
    if (!out) throw std::invalid_argument("cannot open " + cli.get("csv"));
    table.print_csv(out);
    std::cout << "wrote " << cli.get("csv") << "\n";
  } else {
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using aquamac::CliParser;
  std::vector<CliParser::FlagSpec> flags = aquamac::scenario_flag_specs(aquamac::kCompareTool);
  flags.insert(flags.end(),
               {
                   {"x", "load", "swept axis: load, nodes, packet-bits, range"},
                   {"values", "0.2,0.4,0.6,0.8,1.0", "comma-separated x values"},
                   {"protocols", "paper", "comma-separated protocol names, or 'paper' for "
                                          "S-FAMA,ROPA,CS-MAC,EW-MAC"},
                   {"metric", "throughput", "throughput, delivery, power, energy, overhead, "
                                            "efficiency, latency, exectime, collisions, "
                                            "extras, fairness, e2e-delivery, hops, "
                                            "e2e-latency"},
                   {"normalize", "false", "divide each cell by the S-FAMA value (Figs. "
                                          "10/11 style)"},
                   {"reps", "3", "seed replications per point"},
                   {"csv", "", "write CSV here instead of printing a table"},
               });
  CliParser cli{"aquamac_compare", std::move(flags)};
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
