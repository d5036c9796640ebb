// Hop-by-hop reliability layer (docs/reliability.md): bounded custody
// queues with drop policies, deterministic seeded retry/backoff,
// checkpoint round-trips of custody state mid-backoff, the two custody
// auditor invariants, and a faulted soak with the auditor in hard-fail
// mode. The ReliabilityDeterminism suite name is matched by the CI
// ThreadSanitizer job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "harness/checkpoint_run.hpp"
#include "harness/config_io.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "net/network.hpp"
#include "net/relay.hpp"
#include "stats/invariant_auditor.hpp"
#include "stats/trace.hpp"
#include "testbed.hpp"

namespace aquamac {
namespace {

using testbed::TestBed;

/// Collects every trace event verbatim (custody tests inspect which e2e
/// id a dead-letter names).
class VectorTrace final : public TraceSink {
 public:
  void record(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

[[nodiscard]] std::vector<TraceEvent> events_of_kind(const std::vector<TraceEvent>& events,
                                                     TraceEventKind kind) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

TEST(RelayDropPolicy, NamesRoundTrip) {
  EXPECT_EQ(to_string(RelayDropPolicy::kTailDrop), "tail-drop");
  EXPECT_EQ(to_string(RelayDropPolicy::kOldestFirst), "oldest-first");
  // Parsing is the scenario parser's, which spells enums by to_string.
  std::stringstream oldest{"reliability-drop-policy = oldest-first\n"};
  EXPECT_EQ(load_scenario(oldest, paper_default_scenario()).reliability.drop_policy,
            RelayDropPolicy::kOldestFirst);
  std::stringstream newest{"reliability-drop-policy = newest\n"};
  EXPECT_THROW((void)load_scenario(newest, paper_default_scenario()), std::invalid_argument);
}

TEST(ReliabilityCounters, AdditiveWithHighwaterMax) {
  RelayCounters a{};
  a.retransmissions = 2;
  a.failovers = 1;
  a.dead_letter_overflow = 3;
  a.queue_highwater = 4;
  RelayCounters b{};
  b.retransmissions = 5;
  b.duplicates_suppressed = 7;
  b.queue_highwater = 9;
  a += b;
  EXPECT_EQ(a.retransmissions, 7u);
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_EQ(a.dead_letter_overflow, 3u);
  EXPECT_EQ(a.duplicates_suppressed, 7u);
  EXPECT_EQ(a.queue_highwater, 9u) << "highwater aggregates as max, not sum";
}

// --- custody queue bound and drop policies -----------------------------

/// One relay node whose next hop is out of range: every MAC attempt
/// exhausts its retries and drops, handing the packet to the custody
/// backoff. The long backoff base parks it there so the test can probe
/// and overflow the queue deterministically.
class CustodyQueue : public ::testing::Test {
 protected:
  void build(RelayDropPolicy policy) {
    a_ = bed_.add_node(MacKind::kEwMac, Vec3{0, 0, 1'000});
    unreachable_ = bed_.add_node(MacKind::kEwMac, Vec3{0, 0, 4'800});
    ReliabilityConfig rel;
    rel.max_retries = 3;
    rel.queue_limit = 1;
    rel.drop_policy = policy;
    rel.backoff_base = Duration::seconds(300);
    rel.backoff_max = Duration::seconds(600);
    const NodeId hop = unreachable_;
    relay_ = std::make_unique<RelayAgent>(
        bed_.sim(), bed_.mac(a_), a_, /*is_sink=*/false,
        [hop](NodeId) -> std::optional<NodeId> { return hop; },
        /*hop_limit=*/16, rel);
    relay_->set_trace(&trace_);
  }

  TestBed bed_;
  NodeId a_{}, unreachable_{};
  std::unique_ptr<RelayAgent> relay_;
  VectorTrace trace_;
};

TEST_F(CustodyQueue, TailDropRefusesArrivalWhenFull) {
  build(RelayDropPolicy::kTailDrop);
  bed_.hello_and_settle();
  relay_->originate(1'024);  // e2e id (0 << 32) | 1
  bed_.sim().run_until(Time::from_seconds(150.0));
  ASSERT_EQ(relay_->custody_depth(), 1u);
  ASSERT_EQ(relay_->in_backoff_count(), 1u) << "first packet must be parked in backoff";
  EXPECT_FALSE(events_of_kind(trace_.events, TraceEventKind::kRelayRetry).empty());

  relay_->originate(1'024);  // e2e id (0 << 32) | 2 — queue is full
  EXPECT_EQ(relay_->counters().dead_letter_overflow, 1u);
  EXPECT_EQ(relay_->custody_depth(), 1u);
  EXPECT_EQ(relay_->in_backoff_count(), 1u) << "resident custody survives tail drop";
  EXPECT_EQ(relay_->counters().queue_highwater, 1u);
  const auto dead = events_of_kind(trace_.events, TraceEventKind::kRelayDeadLetter);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].seq, 2u) << "tail drop refuses the arriving packet";
}

TEST_F(CustodyQueue, OldestFirstEvictsTheBackedOffResident) {
  build(RelayDropPolicy::kOldestFirst);
  bed_.hello_and_settle();
  relay_->originate(1'024);
  bed_.sim().run_until(Time::from_seconds(150.0));
  ASSERT_EQ(relay_->in_backoff_count(), 1u);

  relay_->originate(1'024);
  EXPECT_EQ(relay_->counters().dead_letter_overflow, 1u);
  EXPECT_EQ(relay_->custody_depth(), 1u);
  EXPECT_EQ(relay_->counters().queue_highwater, 1u);
  const auto dead = events_of_kind(trace_.events, TraceEventKind::kRelayDeadLetter);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].seq, 1u) << "oldest-first evicts the backed-off resident";
}

TEST_F(CustodyQueue, RetryBudgetEndsInExhaustedDeadLetter) {
  build(RelayDropPolicy::kTailDrop);
  bed_.hello_and_settle();
  relay_->originate(1'024);
  // 3 retries x (MAC attempt + <= 600 s backoff) fits comfortably here.
  bed_.sim().run_until(Time::from_seconds(3'600.0));
  EXPECT_EQ(relay_->custody_depth(), 0u);
  EXPECT_EQ(relay_->counters().dead_letter_exhausted, 1u);
  const auto retries = events_of_kind(trace_.events, TraceEventKind::kRelayRetry);
  ASSERT_FALSE(retries.empty());
  for (const TraceEvent& e : retries) EXPECT_LE(e.a, 3) << "retry count within budget";
  const auto requeues = events_of_kind(trace_.events, TraceEventKind::kRelayRequeue);
  EXPECT_EQ(requeues.size(), retries.size()) << "every armed backoff fired a retransmission";
}

// --- determinism across shard and job counts ---------------------------

/// The redundant-sibling corridor under GE burst loss with the ARQ on:
/// every reliability code path (retry, backoff jitter draw, failover,
/// dead letter) runs hot.
[[nodiscard]] ScenarioConfig lossy_arq_scenario(std::uint64_t seed) {
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
  config.sim_time = Duration::seconds(400);
  config.traffic.offered_load_kbps = 0.3;
  config.mac_config.max_retries = 2;
  config.mac_config.dead_neighbor_threshold = 3;
  config.fault.ge_p_bad = 0.15;
  config.fault.ge_loss_bad = 0.9;
  config.reliability.max_retries = 3;
  config.reliability.queue_limit = 16;
  return config;
}

struct RunOutput {
  std::uint64_t digest{0};
  RunStats stats{};
};

RunOutput run_with(ScenarioConfig config, unsigned shards, unsigned jobs) {
  HashTrace trace;
  config.trace = &trace;
  config.shards = shards;
  config.jobs = jobs;
  RunOutput out;
  out.stats = run_scenario(config);
  out.digest = trace.digest();
  return out;
}

TEST(ReliabilityDeterminism, DigestInvariantAcrossShardsAndJobs) {
  const ScenarioConfig config = lossy_arq_scenario(21);
  const RunOutput serial = run_with(config, 1, 1);
  EXPECT_NE(serial.digest, HashTrace{}.digest()) << "trace never exercised";
  EXPECT_GT(serial.stats.e2e_retransmissions, 0u) << "ARQ never exercised";
  for (const unsigned shards : {2u, 4u, 8u}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " jobs=" + std::to_string(jobs));
      const RunOutput sharded = run_with(config, shards, jobs);
      EXPECT_EQ(sharded.digest, serial.digest);
      EXPECT_EQ(sharded.stats.e2e_retransmissions, serial.stats.e2e_retransmissions);
      EXPECT_EQ(sharded.stats.e2e_failovers, serial.stats.e2e_failovers);
      EXPECT_EQ(sharded.stats.e2e_duplicates_suppressed,
                serial.stats.e2e_duplicates_suppressed);
      EXPECT_EQ(sharded.stats.relay_queue_highwater, serial.stats.relay_queue_highwater);
    }
  }
}

// --- checkpoint round-trip with custody mid-backoff --------------------

TEST(ReliabilityCheckpoint, CustodyRoundTripsMidBackoff) {
  ScenarioConfig config = lossy_arq_scenario(33);
  config.fault.ge_p_bad = 0.3;  // drops every few frames: backoffs abound
  // Wide backoff windows so some boundary lands inside one.
  config.reliability.backoff_base = Duration::seconds(20);
  config.reliability.backoff_max = Duration::seconds(120);

  HashTrace full_trace;
  config.trace = &full_trace;
  Simulator sim{config.logger};
  Network network{sim, config};

  Checkpoint ckpt;
  bool captured = false;
  std::size_t custody_at_capture = 0;
  RunBoundaryHooks hooks;
  for (double t = 60.0; t < 400.0; t += 10.0) {
    hooks.boundaries.push_back(Time::from_seconds(t));
  }
  hooks.on_boundary = [&](Time boundary) {
    if (captured) return true;
    std::size_t in_backoff = 0;
    std::size_t custody = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(network.node_count()); ++n) {
      const RelayAgent* relay = network.relay(n);
      EXPECT_NE(relay, nullptr);
      if (relay == nullptr) return false;
      in_backoff += relay->in_backoff_count();
      custody += relay->custody_depth();
    }
    if (in_backoff == 0) return true;  // keep scanning boundaries
    ckpt = make_checkpoint(network, config, boundary);
    captured = true;
    custody_at_capture = custody;
    return true;
  };
  const RunStats full_stats = network.run(hooks);

  ASSERT_TRUE(captured) << "no boundary ever saw a relay backoff in flight";
  ASSERT_GT(custody_at_capture, 0u);
  EXPECT_FALSE(ckpt.payload.empty());

  // Digest-verified replay resume, then bit-identical completion.
  HashTrace resumed_trace;
  ScenarioConfig base = lossy_arq_scenario(33);
  base.trace = &resumed_trace;
  const RunStats resumed_stats = resume_scenario(ckpt, base);
  EXPECT_EQ(resumed_trace.digest(), full_trace.digest());
  EXPECT_NE(full_trace.digest(), HashTrace{}.digest());
  EXPECT_EQ(resumed_stats.e2e_retransmissions, full_stats.e2e_retransmissions);
  EXPECT_EQ(resumed_stats.e2e_arrived_at_sink, full_stats.e2e_arrived_at_sink);
  EXPECT_EQ(resumed_stats.e2e_dead_letter_exhausted, full_stats.e2e_dead_letter_exhausted);
  EXPECT_EQ(resumed_stats.relay_queue_highwater, full_stats.relay_queue_highwater);
}

// --- the custody auditor invariants ------------------------------------

InvariantAuditor::Config custody_config() {
  InvariantAuditor::Config config{};
  config.slotted = true;
  config.omega = Duration::milliseconds(100);
  config.tau_max = Duration::milliseconds(900);
  config.slot_length = config.omega + config.tau_max;
  config.sync_tolerance = Duration::zero();
  config.custody_retry_bound = 3;
  return config;
}

TraceEvent relay_event(TraceEventKind kind, double t_s, NodeId node, NodeId origin,
                       std::uint64_t e2e_id, std::int64_t a, std::int64_t b = 0) {
  TraceEvent event{};
  event.kind = kind;
  event.at = Time::from_seconds(t_s);
  event.node = node;
  event.src = origin;
  event.seq = e2e_id;
  event.a = a;
  event.b = b;
  return event;
}

TEST(InvariantAuditorCustody, DuplicateSinkDeliveryFlagged) {
  InvariantAuditor auditor{custody_config()};
  auditor.record(relay_event(TraceEventKind::kRelayArrive, 1.0, /*node=*/9, /*origin=*/2,
                             /*e2e_id=*/77, /*a=*/3));
  EXPECT_TRUE(auditor.violations().empty());
  // The same id at a different sink: a permitted ACK-loss fork.
  auditor.record(relay_event(TraceEventKind::kRelayArrive, 2.0, 8, 2, 77, 3));
  EXPECT_TRUE(auditor.violations().empty());
  // The same sink absorbing the same id twice is the violation.
  auditor.record(relay_event(TraceEventKind::kRelayArrive, 3.0, 9, 2, 77, 3));
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].kind, InvariantKind::kDuplicateSinkDelivery);
}

TEST(InvariantAuditorCustody, DuplicateCheckOffWithoutRetryBound) {
  InvariantAuditor::Config config = custody_config();
  config.custody_retry_bound = 0;  // ARQ off: MAC dedup resets make forks legal
  InvariantAuditor auditor{config};
  auditor.record(relay_event(TraceEventKind::kRelayArrive, 1.0, 9, 2, 77, 3));
  auditor.record(relay_event(TraceEventKind::kRelayArrive, 2.0, 9, 2, 77, 3));
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(InvariantAuditorCustody, RetryAboveBoundFlagged) {
  InvariantAuditor auditor{custody_config()};
  auditor.record(relay_event(TraceEventKind::kRelayRetry, 1.0, 4, 2, 51, /*retries=*/3,
                             /*wait_ns=*/5'000'000'000));
  EXPECT_TRUE(auditor.violations().empty()) << "at the bound is legal";
  auditor.record(relay_event(TraceEventKind::kRelayRetry, 2.0, 4, 2, 51, 4, 5'000'000'000));
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].kind, InvariantKind::kRetryExceedsBound);
}

// --- faulted soak with the auditor in hard-fail mode -------------------

TEST(ReliabilitySoak, AuditsCleanUnderBurstLossOutagesAndStorms) {
  ScenarioConfig config = lossy_arq_scenario(55);
  config.sim_time = Duration::seconds(600);
  config.fault.outage_rate_per_hour = 30.0;
  config.fault.outage_mean_duration = Duration::seconds(45);
  config.fault.storm_rate_per_hour = 6.0;
  config.fault.storm_mean_duration = Duration::seconds(60);
  config.fault.storm_loss_prob = 0.8;

  InvariantAuditor::Config audit = auditor_config_for(config);
  audit.hard_fail = true;
  EXPECT_EQ(audit.custody_retry_bound, config.reliability.max_retries);
  InvariantAuditor auditor{audit};
  config.trace = &auditor;
  const RunStats stats = run_scenario(config);  // hard-fail: violations throw
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_GT(auditor.checks(), 0u);
  EXPECT_GT(stats.e2e_retransmissions, 0u) << "soak never exercised the ARQ";
  EXPECT_GT(stats.e2e_originated, 0u);
}

TEST(ReliabilitySoak, FailoverReroutesAroundOutagesCleanly) {
  // Static tree routing keeps naming the dead hop through an outage (DV
  // re-routes before the custody retry fires), so this is the scenario
  // that actually exercises next-hop failover rather than plain retry.
  ScenarioConfig config = lossy_arq_scenario(2);
  config.routing = RoutingKind::kTree;
  config.sim_time = Duration::seconds(600);
  config.fault.ge_p_bad = 0.0;  // outages alone drive the failovers
  config.fault.outage_rate_per_hour = 30.0;
  config.fault.outage_mean_duration = Duration::seconds(60);

  InvariantAuditor::Config audit = auditor_config_for(config);
  audit.hard_fail = true;
  InvariantAuditor auditor{audit};
  config.trace = &auditor;
  const RunStats stats = run_scenario(config);  // hard-fail: violations throw
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_GT(auditor.checks(), 0u);
  EXPECT_GT(stats.e2e_failovers, 0u) << "soak never exercised failover";
  EXPECT_GT(stats.e2e_arrived_at_sink, 0u);
}

}  // namespace
}  // namespace aquamac
