// Protocol x physics soak grid: every protocol under every
// (propagation, reception) combination on a mid-size network, verifying
// that the full cross-product works, conserves, and reproduces. The grid
// runs at 0.4 kbps; SoakGridLoaded adds one 2 kbps point per
// paper-comparison protocol, where contention is heavy. SoakGridWinnerRule
// adds one EW-MAC point at 4 kbps, where two decodable RTSs often meet at
// one CTS decision (the near/far slot coupling of arXiv 2210.14500), so
// the §3.1 highest-priority winner rule shows in the digests: picking the
// first RTS of the slot instead moves its row.
//
// Each point is also pinned by a per-protocol digest table
// (tests/data/soak_golden.txt), one row per point:
//   stats  FNV-1a of the write_run_stats_json bytes;
//   trace  the full HashTrace digest of the run;
//   model  the HashTrace digest without the MAC-context kinds (kMacState,
//          kSlotBoundary, kContentionWin, kContentionLoss), i.e. what the
//          network did, not how the MAC narrated it.
// A refactor of the MAC layer that keeps behaviour leaves stats and model
// unchanged; trace moves only when the narration does.
//
// Regenerate (only when an output change is intended and reviewed; run
// the binary directly, not under a parallel ctest):
//   AQUAMAC_UPDATE_GOLDEN=1 ./tests/soak_grid_test

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "stats/trace.hpp"
#include "util/json_writer.hpp"

#ifndef AQUAMAC_SOAK_GOLDEN
#error "AQUAMAC_SOAK_GOLDEN must name tests/data/soak_golden.txt"
#endif

namespace aquamac {
namespace {

struct SoakPoint {
  MacKind mac;
  PropagationKind propagation;
  ReceptionKind reception;
};

/// HashTrace over every event except the four MAC-context kinds.
class ModelHashTrace final : public TraceSink {
 public:
  void record(const TraceEvent& event) override {
    switch (event.kind) {
      case TraceEventKind::kMacState:
      case TraceEventKind::kSlotBoundary:
      case TraceEventKind::kContentionWin:
      case TraceEventKind::kContentionLoss:
        return;
      default:
        hash_.record(event);
    }
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_.digest(); }

 private:
  HashTrace hash_;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string stats_json_bytes(const RunStats& stats) {
  std::ostringstream os;
  JsonWriter json{os};
  write_run_stats_json(json, stats);
  return os.str();
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

bool updating() { return std::getenv("AQUAMAC_UPDATE_GOLDEN") != nullptr; }

/// name -> "stats trace model", as committed.
std::map<std::string, std::string>& golden_table() {
  static std::map<std::string, std::string> table = [] {
    std::map<std::string, std::string> rows;
    std::ifstream is{AQUAMAC_SOAK_GOLDEN};
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.find(' ');
      if (space != std::string::npos) rows[line.substr(0, space)] = line.substr(space + 1);
    }
    return rows;
  }();
  return table;
}

template <typename Param>
class SoakSuite : public ::testing::TestWithParam<Param> {
 public:
  static void TearDownTestSuite() {
    if (!updating()) return;
    std::ofstream os{AQUAMAC_SOAK_GOLDEN};
    os << "# point stats-json-fnv trace-digest model-digest "
          "(AQUAMAC_UPDATE_GOLDEN=1 ./tests/soak_grid_test)\n";
    for (const auto& [name, row] : golden_table()) os << name << ' ' << row << '\n';
    ASSERT_TRUE(os.good()) << "cannot write " << AQUAMAC_SOAK_GOLDEN;
  }
};

class SoakGrid : public SoakSuite<SoakPoint> {};
class SoakGridLoaded : public SoakSuite<MacKind> {};
class SoakGridWinnerRule : public SoakSuite<MacKind> {};

/// Runs one point and checks it against its row of the digest table.
void run_soak_point(const SoakPoint& point, double load_kbps) {
  ScenarioConfig config = small_test_scenario();
  config.mac = point.mac;
  config.propagation = point.propagation;
  config.reception = point.reception;
  config.traffic.offered_load_kbps = load_kbps;
  config.node_count = 24;
  config.enable_mobility = true;
  config.sim_time = Duration::seconds(150);

  Simulator sim;
  Network network{sim, config};
  const RunStats stats = network.run();

  EXPECT_GT(stats.packets_delivered, 0u);
  EXPECT_LE(stats.packets_delivered, stats.packets_offered);
  for (NodeId i = 0; i < network.node_count(); ++i) {
    const auto& mac = network.node(i).mac();
    const auto& c = mac.counters();
    ASSERT_EQ(c.packets_offered, c.packets_sent_ok + c.packets_dropped + mac.queue_depth());
  }

  // The same point again with the digest sinks attached: observing the
  // run must not change it.
  HashTrace full;
  ModelHashTrace model;
  TeeTrace tee{{&full, &model}};
  config.trace = &tee;
  Simulator traced_sim;
  Network traced{traced_sim, config};
  const std::string json = stats_json_bytes(stats);
  ASSERT_EQ(stats_json_bytes(traced.run()), json) << "attaching a trace sink changed the run";

  const std::string row = hex(fnv1a(json)) + ' ' + hex(full.digest()) + ' ' + hex(model.digest());
  const std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string point_name = name.substr(name.find('/') + 1);
  if (updating()) {
    golden_table()[point_name] = row;
    return;
  }
  const auto it = golden_table().find(point_name);
  ASSERT_NE(it, golden_table().end())
      << "no row for " << point_name << " (regenerate with AQUAMAC_UPDATE_GOLDEN=1)";
  EXPECT_EQ(it->second, row) << "columns: stats-json-fnv trace-digest model-digest";
}

TEST_P(SoakGrid, RunsConservesDelivers) { run_soak_point(GetParam(), 0.4); }

TEST_P(SoakGridLoaded, RunsConservesDelivers) {
  run_soak_point({GetParam(), PropagationKind::kStraightLine, ReceptionKind::kDeterministic}, 2.0);
}

TEST_P(SoakGridWinnerRule, RunsConservesDelivers) {
  run_soak_point({GetParam(), PropagationKind::kStraightLine, ReceptionKind::kDeterministic}, 4.0);
}

std::vector<SoakPoint> grid() {
  std::vector<SoakPoint> points;
  for (MacKind mac : {MacKind::kEwMac, MacKind::kSFama, MacKind::kRopa, MacKind::kCsMac,
                      MacKind::kCwMac, MacKind::kSlottedAloha, MacKind::kMacaU}) {
    for (PropagationKind propagation :
         {PropagationKind::kStraightLine, PropagationKind::kBellhopLite}) {
      for (ReceptionKind reception :
           {ReceptionKind::kDeterministic, ReceptionKind::kSinrPer}) {
        points.push_back({mac, propagation, reception});
      }
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(FullCrossProduct, SoakGrid, ::testing::ValuesIn(grid()),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param.mac)};
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           name += param_info.param.propagation ==
                                           PropagationKind::kStraightLine
                                       ? "_straight"
                                       : "_bellhop";
                           name += param_info.param.reception == ReceptionKind::kDeterministic
                                       ? "_det"
                                       : "_sinr";
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(PaperSet, SoakGridLoaded, ::testing::ValuesIn(paper_comparison_set()),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param)};
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name + "_straight_det_2kbps";
                         });

INSTANTIATE_TEST_SUITE_P(EwMac, SoakGridWinnerRule, ::testing::Values(MacKind::kEwMac),
                         [](const auto&) { return std::string{"EW_MAC_straight_det_4kbps"}; });

}  // namespace
}  // namespace aquamac
