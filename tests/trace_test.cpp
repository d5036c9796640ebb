#include "stats/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "harness/scenario.hpp"
#include "mac/mac_factory.hpp"
#include "net/network.hpp"

namespace aquamac {
namespace {

TraceEvent sample_event() {
  TraceEvent event{};
  event.kind = TraceEventKind::kRxOk;
  event.at = Time::from_seconds(1.5);
  event.node = 3;
  event.frame_type = FrameType::kData;
  event.src = 2;
  event.dst = 3;
  event.seq = 7;
  event.bits = 2'048;
  return event;
}

TEST(MemoryTrace, RecordsAndCounts) {
  MemoryTrace trace;
  trace.record(sample_event());
  TraceEvent tx = sample_event();
  tx.kind = TraceEventKind::kTxStart;
  tx.frame_type = FrameType::kRts;
  trace.record(tx);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::kRxOk), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kTxStart), 1u);
  EXPECT_EQ(trace.count_frames(FrameType::kData), 1u);
  EXPECT_EQ(trace.count_frames(FrameType::kRts), 1u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(CsvTrace, HeaderAndRows) {
  std::ostringstream os;
  CsvTrace trace{os};
  trace.record(sample_event());
  const std::string out = os.str();
  EXPECT_NE(out.find("t_ns,event,node,frame"), std::string::npos);
  EXPECT_NE(out.find("1500000000,RX,3,DATA,2,3,7,2048"), std::string::npos);
}

TEST(CsvTrace, LossReasonColumn) {
  std::ostringstream os;
  CsvTrace trace{os};
  TraceEvent lost = sample_event();
  lost.kind = TraceEventKind::kRxLost;
  lost.outcome = RxOutcome::kCollision;
  trace.record(lost);
  EXPECT_NE(os.str().find(",collision"), std::string::npos);
}

TEST(HashTrace, SensitiveToEveryField) {
  const TraceEvent base = sample_event();
  HashTrace reference;
  reference.record(base);

  auto digest_with = [&](auto mutate) {
    TraceEvent event = sample_event();
    mutate(event);
    HashTrace hash;
    hash.record(event);
    return hash.digest();
  };
  EXPECT_NE(digest_with([](TraceEvent& e) { e.at = Time::from_seconds(1.6); }),
            reference.digest());
  EXPECT_NE(digest_with([](TraceEvent& e) { e.seq = 8; }), reference.digest());
  EXPECT_NE(digest_with([](TraceEvent& e) { e.kind = TraceEventKind::kRxLost; }),
            reference.digest());
  EXPECT_NE(digest_with([](TraceEvent& e) { e.bits = 64; }), reference.digest());
}

TEST(TeeTrace, FansOut) {
  MemoryTrace a;
  MemoryTrace b;
  TeeTrace tee{{&a, &b}};
  tee.record(sample_event());
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(NetworkTrace, FullRunIsTimeOrderedAndConsistent) {
  MemoryTrace trace;
  ScenarioConfig config = small_test_scenario();
  config.trace = &trace;
  Simulator sim;
  Network network{sim, config};
  const RunStats stats = network.run();

  EXPECT_GT(trace.size(), 50u);
  EXPECT_TRUE(trace.is_time_ordered());
  // Cross-check against counters: successful DATA receptions in the trace
  // match delivered + duplicates.
  std::size_t data_rx = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceEventKind::kRxOk &&
        (e.frame_type == FrameType::kData || e.frame_type == FrameType::kExData) &&
        e.dst == e.node) {
      ++data_rx;
    }
  }
  MacCounters total{};
  for (NodeId i = 0; i < network.node_count(); ++i) total += network.node(i).mac().counters();
  EXPECT_EQ(data_rx, total.packets_delivered + total.duplicate_deliveries);
  (void)stats;
}

TEST(NetworkTrace, IdenticalSeedsProduceIdenticalDigests) {
  auto digest_for = [](std::uint64_t seed) {
    HashTrace hash;
    ScenarioConfig config = small_test_scenario();
    config.seed = seed;
    config.trace = &hash;
    Simulator sim;
    Network network{sim, config};
    network.run();
    return hash.digest();
  };
  EXPECT_EQ(digest_for(42), digest_for(42)) << "bit-identical reruns";
  EXPECT_NE(digest_for(42), digest_for(43));
}

/// Every protocol of the paper's comparison runs the shared handshake
/// cycle, so a loaded run narrates each of its stages in the trace.
class MacContextTrace : public ::testing::TestWithParam<MacKind> {};

TEST_P(MacContextTrace, HandshakeNarratesEveryStage) {
  MemoryTrace trace;
  ScenarioConfig config = small_test_scenario();
  config.mac = GetParam();
  config.traffic.offered_load_kbps = 2.0;
  config.trace = &trace;
  Simulator sim;
  Network network{sim, config};
  network.run();

  for (const TraceEventKind kind :
       {TraceEventKind::kMacState, TraceEventKind::kSlotBoundary, TraceEventKind::kContentionWin,
        TraceEventKind::kContentionLoss}) {
    EXPECT_GT(trace.count(kind), 0u) << to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperComparison, MacContextTrace,
                         ::testing::ValuesIn(paper_comparison_set()),
                         [](const ::testing::TestParamInfo<MacKind>& param) {
                           std::string name{to_string(param.param)};
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace aquamac
