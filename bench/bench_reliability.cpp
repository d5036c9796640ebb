// Hop-by-hop reliability degradation curves (docs/reliability.md): the
// custody/ARQ relay layer vs the plain drop-on-MAC-failure relay on the
// redundant-sibling corridor, swept across Gilbert-Elliott channel loss
// and (separately) a combined outage + interference-storm fault plan.
//
// Two experiments:
//  - loss: GE burst loss swept by P(good->bad); both modes run the same
//    seeds with the InvariantAuditor attached in hard-fail mode (the
//    custody invariants: no duplicate sink delivery, retries bounded).
//    Gates (exit 1 otherwise):
//      * ARQ delivery is monotone non-increasing in the loss rate
//        (within a small replication-noise epsilon);
//      * ARQ delivery strictly exceeds the no-ARQ baseline at every
//        nonzero loss point;
//      * the ARQ run's HashTrace digest is identical for shards 1 and 2
//        at a representative loss point (reliability timers are
//        lane-local, so sharding must not perturb the schedule).
//  - storm: relay outages + interference storms, reported (no gate —
//    outage survival is bench_multihop's DV-vs-greedy gate; here the
//    comparison isolates what custody adds on top).
//
// Emits BENCH_reliability.json (schema aquamac-bench-reliability-v1;
// render with scripts/plot_results.py).
//
//   AQUAMAC_FAST=1 ./bench_reliability   # 2 replications

#include <cmath>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "stats/trace.hpp"

namespace {

using namespace aquamac;

/// Loss-sweep axis: P(good -> bad) per 100 ms GE step. With the default
/// P(bad -> good) = 0.3 and loss-in-bad 0.9, the stationary frame-loss
/// rates are about 0 / 0.13 / 0.30 / 0.45.
const std::vector<double> kGeSweep{0.0, 0.05, 0.15, 0.3};

/// The bench_multihop redundant-sibling corridor (five relay layers of
/// two siblings each under one sink layer) with DV routing, so the ARQ's
/// failover always has a genuine alternate hop to consult.
[[nodiscard]] ScenarioConfig corridor_scenario(std::uint64_t seed) {
  ScenarioConfig config = small_test_scenario();
  config.seed = seed;
  config.node_count = 10;
  config.deployment.kind = DeploymentKind::kLayeredColumn;
  config.deployment.width_m = 400.0;
  config.deployment.length_m = 400.0;
  config.deployment.depth_m = 5'000.0;
  config.deployment.layer_spacing_m = 1'000.0;
  config.deployment.jitter_m = 50.0;
  config.enable_mobility = false;
  config.multi_hop = true;
  config.routing = RoutingKind::kDv;
  config.sim_time = Duration::seconds(1'200);
  config.traffic.offered_load_kbps = 0.3;
  config.mac_config.max_retries = 2;
  config.mac_config.dead_neighbor_threshold = 3;
  return config;
}

[[nodiscard]] ScenarioConfig with_arq(ScenarioConfig config) {
  config.reliability.max_retries = 3;
  config.reliability.queue_limit = 16;
  return config;
}

/// Dead letters of every cause.
double dead_letters(const MeanStats& s) {
  return s.e2e_dead_letter_exhausted + s.e2e_dead_letter_overflow + s.e2e_dead_letter_no_route;
}

[[nodiscard]] std::uint64_t digest_with_shards(ScenarioConfig config, unsigned shards) {
  HashTrace trace;
  config.trace = &trace;
  config.shards = shards;
  (void)run_scenario(config);
  return trace.digest();
}

void print_rows(const std::string& label, const std::vector<double>& xs,
                const std::vector<MeanStats>& arq, const std::vector<MeanStats>& noarq) {
  std::cout << label << "\n  x        arq_dlv  noarq_dlv  rtx     fover   deadltr  dup  qhw\n";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::cout << "  " << xs[i] << "\t" << arq[i].e2e_delivery_ratio << "\t"
              << noarq[i].e2e_delivery_ratio << "\t" << arq[i].e2e_retransmissions << "\t"
              << arq[i].e2e_failovers << "\t" << dead_letters(arq[i]) << "\t"
              << arq[i].e2e_duplicates_suppressed << "\t" << arq[i].relay_queue_highwater
              << "\n";
  }
  std::cout << "\n";
}

void write_series(JsonWriter& json, const std::string& key, const std::vector<MeanStats>& rows) {
  const std::vector<std::pair<std::string, MetricFn>> metrics{
      {"delivery_ratio", [](const MeanStats& s) { return s.e2e_delivery_ratio; }},
      {"mean_e2e_latency_s", [](const MeanStats& s) { return s.mean_e2e_latency_s; }},
      {"retransmissions", [](const MeanStats& s) { return s.e2e_retransmissions; }},
      {"failovers", [](const MeanStats& s) { return s.e2e_failovers; }},
      {"dead_letters", dead_letters},
      {"duplicates_suppressed", [](const MeanStats& s) { return s.e2e_duplicates_suppressed; }},
      {"queue_highwater", [](const MeanStats& s) { return s.relay_queue_highwater; }},
  };
  json.key(key).begin_object();
  for (const auto& [metric, value] : metrics) {
    json.key(metric).begin_array();
    for (const MeanStats& s : rows) json.value(value(s));
    json.end_array();
  }
  json.end_object();
}

}  // namespace

int main() {
  using namespace aquamac;
  bench::print_header("Hop-by-hop reliability degradation",
                      "custody ARQ vs plain relay under burst loss (not a paper figure)");

  const unsigned reps = bench::fast() ? 2 : std::max(4u, bench::replications(3));

  // Monotonicity tolerance: adjacent sweep points may invert by up to
  // this much from replication noise without failing the gate.
  const double kEps = 0.02;

  std::vector<MeanStats> loss_arq, loss_noarq;
  std::vector<MeanStats> storm_arq, storm_noarq;
  std::uint64_t digest1 = 0, digest2 = 0;
  try {
    // Every run has a hard-fail auditor; custody_retry_bound comes from
    // the scenario, so the duplicate-delivery / retry-bound checks arm
    // exactly when the ARQ is on.
    std::cout << "GE loss sweep, corridor N=10 (replications " << reps << ")\n";
    for (const double p_bad : kGeSweep) {
      ScenarioConfig base = corridor_scenario(7);
      base.fault.ge_p_bad = p_bad;
      base.fault.ge_loss_bad = 0.9;
      loss_arq.push_back(bench::audited_mean(with_arq(base), reps));
      loss_noarq.push_back(bench::audited_mean(base, reps));
    }
    print_rows("loss sweep", kGeSweep, loss_arq, loss_noarq);

    std::cout << "outage + storm plan, corridor N=10 (replications " << reps << ")\n";
    {
      ScenarioConfig base = corridor_scenario(13);
      base.fault.outage_rate_per_hour = 30.0;
      base.fault.outage_mean_duration = Duration::seconds(45);
      base.fault.storm_rate_per_hour = 6.0;
      base.fault.storm_mean_duration = Duration::seconds(60);
      base.fault.storm_loss_prob = 0.8;
      storm_arq.push_back(bench::audited_mean(with_arq(base), reps));
      storm_noarq.push_back(bench::audited_mean(base, reps));
    }
    print_rows("outage+storm", {0.0}, storm_arq, storm_noarq);

    // Shard invariance at a representative lossy point: backoff timers
    // live on the node's own lane, so the digest must not move.
    ScenarioConfig rep_point = with_arq(corridor_scenario(7));
    rep_point.fault.ge_p_bad = 0.15;
    rep_point.fault.ge_loss_bad = 0.9;
    digest1 = digest_with_shards(rep_point, 1);
    digest2 = digest_with_shards(rep_point, 2);
  } catch (const std::exception& e) {
    std::cerr << "ERROR: auditor violation: " << e.what() << "\n";
    return 1;
  }

  bool monotone_ok = true;
  for (std::size_t i = 1; i < loss_arq.size(); ++i) {
    if (loss_arq[i].e2e_delivery_ratio > loss_arq[i - 1].e2e_delivery_ratio + kEps) {
      monotone_ok = false;
      std::cerr << "ERROR: ARQ delivery rises " << loss_arq[i - 1].e2e_delivery_ratio << " -> "
                << loss_arq[i].e2e_delivery_ratio << " between loss points " << kGeSweep[i - 1]
                << " and " << kGeSweep[i] << "\n";
    }
  }
  bool beats_baseline = true;
  for (std::size_t i = 0; i < kGeSweep.size(); ++i) {
    if (kGeSweep[i] == 0.0) continue;
    if (loss_arq[i].e2e_delivery_ratio <= loss_noarq[i].e2e_delivery_ratio) {
      beats_baseline = false;
      std::cerr << "ERROR: ARQ delivery " << loss_arq[i].e2e_delivery_ratio
                << " not above no-ARQ " << loss_noarq[i].e2e_delivery_ratio << " at loss point "
                << kGeSweep[i] << "\n";
    }
  }
  const bool shard_ok = digest1 == digest2 && digest1 != HashTrace{}.digest();
  if (!shard_ok) {
    std::cerr << "ERROR: ARQ trace digest differs across shard counts (" << digest1
              << " vs " << digest2 << ")\n";
  }
  std::cout << "gates: monotone " << (monotone_ok ? "ok" : "FAIL") << ", arq>noarq "
            << (beats_baseline ? "ok" : "FAIL") << ", shard-invariant "
            << (shard_ok ? "ok" : "FAIL") << "\n";

  bench::write_json_file("reliability", [&](JsonWriter& json) {
    json.begin_object();
    json.key("bench").value("reliability");
    json.key("schema").value("aquamac-bench-reliability-v1");
    json.key("replications").value(static_cast<double>(reps));
    json.key("loss").begin_object();
    json.key("xs").begin_array();
    for (const double x : kGeSweep) json.value(x);
    json.end_array();
    json.key("monotone_ok").value(monotone_ok ? 1.0 : 0.0);
    json.key("beats_baseline_ok").value(beats_baseline ? 1.0 : 0.0);
    write_series(json, "arq", loss_arq);
    write_series(json, "noarq", loss_noarq);
    json.end_object();
    json.key("storm").begin_object();
    write_series(json, "arq", storm_arq);
    write_series(json, "noarq", storm_noarq);
    json.end_object();
    json.key("shard_invariant").value(shard_ok ? 1.0 : 0.0);
    json.end_object();
  });

  return monotone_ok && beats_baseline && shard_ok ? 0 : 1;
}
