// Fault-injection degradation curves: sweeps clock-drift rate, outage
// rate and Gilbert-Elliott burst-loss severity per protocol (EW-MAC,
// S-FAMA, MACA-U) on the small connected scenario, with the
// InvariantAuditor attached in hard-fail mode to every run — a violation
// inside a healthy interval aborts the bench. Guard slack is sized per
// cell from the exact realized clock uncertainty, so EW-MAC's extra
// windows shrink instead of breaking the overlap theorem.
//
// The oracle: mean delivery ratio must be monotone non-increasing along
// the drift and outage axes for every protocol (exit 1 otherwise).
// Emits BENCH_fault.json (schema aquamac-bench-fault-v1; render with
// scripts/plot_results.py --axis <name>).
//
//   AQUAMAC_FAST=1 ./bench_fault      # 1 replication, short axes

#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace aquamac;

const std::vector<MacKind> kProtocols{MacKind::kEwMac, MacKind::kSFama, MacKind::kMacaU};

struct Axis {
  std::string name;                         ///< JSON key and x-axis label
  std::vector<double> xs;
  bool require_monotone{false};             ///< delivery ratio non-increasing
  void (*apply)(ScenarioConfig&, double){}; ///< sets the swept fault knob
};

[[nodiscard]] ScenarioConfig base_scenario() {
  ScenarioConfig config = small_test_scenario();
  // Long runs + 10 replications: delivery under mid-range drift trades
  // extra-window capacity against collision risk, and short runs leave
  // enough variance to wiggle the curve; 600 s x 10 seeds settles it.
  config.sim_time = Duration::seconds(600);
  config.traffic.offered_load_kbps = 0.3;
  return config;
}

/// Mean delivery ratio over `replications` seeded runs, each with a
/// hard-fail auditor scoped to healthy intervals. Throws on violation.
double cell_delivery(const ScenarioConfig& config, unsigned replications) {
  return bench::audited_mean(config, replications, [](ScenarioConfig& seeded) {
           // Shrink EW-MAC's extra windows by exactly the clock spread this
           // (seed, plan) realizes; zero when the cell injects no drift.
           seeded.mac_config.guard_slack = realized_clock_uncertainty(seeded);
         }).delivery_ratio;
}

}  // namespace

int main() {
  using namespace aquamac;
  bench::print_header("Fault-injection degradation",
                      "robustness under drift / outages / burst loss (not a paper figure)");

  const bool fast = bench::fast();
  const unsigned reps = bench::replications(10);

  std::vector<Axis> axes{
      Axis{"drift_ppm",
           fast ? std::vector<double>{0.0, 4'000.0}
                : std::vector<double>{0.0, 500.0, 1'000.0, 2'000.0, 4'000.0},
           true,
           [](ScenarioConfig& c, double x) { c.fault.drift_ppm_stddev = x; }},
      Axis{"outage_per_hour",
           fast ? std::vector<double>{0.0, 240.0}
                : std::vector<double>{0.0, 60.0, 180.0, 480.0},
           true,
           [](ScenarioConfig& c, double x) {
             c.fault.outage_rate_per_hour = x;
             c.fault.outage_mean_duration = Duration::seconds(10);
           }},
      Axis{"ge_p_bad",
           fast ? std::vector<double>{0.0, 0.15}
                : std::vector<double>{0.0, 0.05, 0.15, 0.4},
           false,  // reported, not gated: burst loss also suppresses *offers*
           [](ScenarioConfig& c, double x) {
             c.fault.ge_p_bad = x;
             c.fault.ge_p_good = 0.3;
             c.fault.ge_loss_bad = 0.9;
           }},
  };

  // axis -> protocol -> delivery ratio per x.
  std::map<std::string, std::map<std::string, std::vector<double>>> results;
  bool monotone_ok = true;

  for (const Axis& axis : axes) {
    std::cout << axis.name << " (replications " << reps << ")\n";
    std::cout << "      x";
    for (const MacKind mac : kProtocols) std::cout << "   " << to_string(mac);
    std::cout << "\n";
    for (const double x : axis.xs) {
      std::cout.width(7);
      std::cout << x;
      for (const MacKind mac : kProtocols) {
        ScenarioConfig config = base_scenario();
        config.mac = mac;
        axis.apply(config, x);
        double ratio = 0.0;
        try {
          ratio = cell_delivery(config, reps);
        } catch (const std::exception& e) {
          std::cerr << "\nERROR: auditor violation at " << axis.name << "=" << x << " ("
                    << to_string(mac) << "): " << e.what() << "\n";
          return 1;
        }
        results[axis.name][std::string{to_string(mac)}].push_back(ratio);
        std::cout << "   " << ratio;
      }
      std::cout << "\n";
    }
    if (axis.require_monotone) {
      for (const MacKind mac : kProtocols) {
        const auto& ys = results[axis.name][std::string{to_string(mac)}];
        for (std::size_t i = 1; i < ys.size(); ++i) {
          if (ys[i] > ys[i - 1] + 1e-9) {
            std::cerr << "ERROR: " << to_string(mac) << " delivery ratio rose along "
                      << axis.name << " (" << ys[i - 1] << " -> " << ys[i] << " at x="
                      << axis.xs[i] << ")\n";
            monotone_ok = false;
          }
        }
      }
    }
    std::cout << "\n";
  }

  std::cout << "degradation monotone on gated axes: " << (monotone_ok ? "yes" : "NO") << "\n";

  bench::write_json_file("fault", [&](JsonWriter& json) {
    json.begin_object();
    json.key("bench").value("fault");
    json.key("schema").value("aquamac-bench-fault-v1");
    json.key("replications").value(static_cast<double>(reps));
    json.key("monotone_ok").value(monotone_ok ? 1.0 : 0.0);
    json.key("protocols").begin_array();
    for (const MacKind mac : kProtocols) json.value(to_string(mac));
    json.end_array();
    json.key("axes").begin_object();
    for (const Axis& axis : axes) {
      json.key(axis.name).begin_object();
      json.key("xs").begin_array();
      for (const double x : axis.xs) json.value(x);
      json.end_array();
      json.key("series").begin_object();
      json.key("delivery_ratio").begin_object();
      for (const MacKind mac : kProtocols) {
        json.key(to_string(mac)).begin_array();
        for (const double y : results[axis.name][std::string{to_string(mac)}]) json.value(y);
        json.end_array();
      }
      json.end_object();
      json.end_object();
      json.end_object();
    }
    json.end_object();
    json.end_object();
  });

  return monotone_ok ? 0 : 1;
}
