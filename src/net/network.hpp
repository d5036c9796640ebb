#pragma once
// Network: assembles one complete simulated UASN — channel, nodes,
// modems, MACs, mobility, routing and traffic — from a ScenarioConfig,
// runs it, and aggregates statistics. One Network per run; fully
// reproducible from (config, config.seed).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "channel/acoustic_channel.hpp"
#include "channel/propagation.hpp"
#include "channel/reception.hpp"
#include "fault/fault_plan.hpp"
#include "mac/mac_factory.hpp"
#include "net/deployment.hpp"
#include "net/dv_router.hpp"
#include "net/node.hpp"
#include "net/relay.hpp"
#include "net/route_table.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"
#include "sim/shard_plan.hpp"
#include "sim/simulator.hpp"
#include "stats/deferred_trace.hpp"
#include "stats/metrics.hpp"
#include "stats/trace.hpp"

namespace aquamac {

enum class PropagationKind { kStraightLine, kBellhopLite };
enum class ReceptionKind { kDeterministic, kSinrPer };

struct ScenarioConfig {
  MacKind mac{MacKind::kEwMac};
  std::size_t node_count{60};
  std::uint64_t seed{1};

  /// Harness-level only (never read inside a run): worker threads used by
  /// run_replicated / run_sweep to fan independent (protocol, x, seed)
  /// runs across cores. 0 = auto (AQUAMAC_JOBS env, else hardware
  /// concurrency); 1 = the serial code path. Results are bit-identical
  /// for every jobs value — each run owns its Simulator/Network/RNG.
  unsigned jobs{0};

  /// Intra-run parallelism: shard the event loop spatially into this many
  /// conservative-PDES shards (see docs/parallel-des.md). 1 = the serial
  /// engine. Results are bit-identical for every shards value — the
  /// sharded engine replays the serial event order exactly — so this is a
  /// pure wall-clock knob, worthwhile from a few thousand nodes up.
  unsigned shards{1};

  /// Table 2: 300 s of offered traffic after a discovery warm-up.
  Duration sim_time{Duration::seconds(300)};
  Duration hello_window{Duration::seconds(10)};
  std::uint32_t hello_rounds{2};

  ChannelConfig channel{};
  double bit_rate_bps{12'000.0};
  PowerProfile power{};

  PropagationKind propagation{PropagationKind::kStraightLine};
  double sound_speed_mps{1'500.0};

  ReceptionKind reception{ReceptionKind::kDeterministic};
  Modulation modulation{Modulation::kFskNoncoherent};

  DeploymentConfig deployment{};
  bool enable_mobility{true};
  MobilityConfig mobility{};
  /// Mobility position re-sampling cadence (applies to all drifters).

  MacConfig mac_config{};
  TrafficConfig traffic{};

  /// Multi-hop mode (§3.1/Fig. 1): traffic is originated toward surface
  /// sinks and relayed hop-by-hop; sinks are the shallowest
  /// `sink_fraction` of nodes (at least one). Off by default — the
  /// paper's figures measure one-hop MAC throughput.
  bool multi_hop{false};
  double sink_fraction{0.1};
  std::uint8_t hop_limit{16};

  /// Which routing layer names next hops in multi-hop mode
  /// (docs/routing.md). The static shortest-delay tree is the default;
  /// kGreedy keeps the original depth-greedy rule as a baseline
  /// comparator; kDv runs the distance-vector protocol with piggybacked
  /// advertisements and route maintenance.
  RoutingKind routing{RoutingKind::kTree};
  /// DV beacon period: every node broadcasts a (route-ad-carrying) HELLO
  /// on this cadence, and sinks bump their sequence number each round —
  /// the mechanism that flushes stale routes after faults.
  Duration routing_beacon{Duration::seconds(10)};

  /// Hop-by-hop reliability layer (docs/reliability.md): bounded custody
  /// queues, seeded retry backoff and next-hop failover in the relay
  /// agents. Disabled by default (max_retries 0) — legacy behavior.
  ReliabilityConfig reliability{};
  /// Greedy-baseline dead-neighbor blacklist (ROADMAP 2c): when on, the
  /// depth rule skips neighbors the MAC currently declares dead (only
  /// meaningful with mac_config.dead_neighbor_threshold > 0, so default
  /// scenarios are unchanged). Off pins the naive always-same-hop greedy
  /// baseline benches compare against.
  bool greedy_blacklist{true};

  /// Hard node failures: at `node_failure_time` after traffic start, a
  /// random `node_failure_fraction` of nodes goes permanently silent.
  double node_failure_fraction{0.0};
  Duration node_failure_time{Duration::seconds(60)};

  /// Clock-synchronization imperfection (§3.1 assumes perfect sync; this
  /// knob exists for the failure-injection studies): each node's clock is
  /// offset by a normal(0, sigma) draw, skewing the timestamps from which
  /// neighbors measure propagation delays.
  double clock_offset_stddev_s{0.0};

  /// Time-varying fault injection (drift, outages, burst loss, storms).
  /// With every knob at zero no FaultPlan is constructed and the run is
  /// bit-identical to a configuration without the subsystem.
  FaultConfig fault{};

  /// Optional structured PHY trace (not owned).
  TraceSink* trace{nullptr};

  /// Periodic checkpointing (docs/checkpoint.md): every multiple of this
  /// interval the harness snapshots the run to checkpoint_path,
  /// overwriting the previous snapshot. Zero disables.
  Duration checkpoint_every{};
  std::string checkpoint_path{};

  Logger logger{Logger::off()};
};

/// Boundary instrumentation for Network::run: the run pauses at each
/// listed time (ascending; entries past the horizon never fire) and calls
/// `on_boundary`; returning false stops the run at that boundary. The
/// pauses are non-perturbing — splitting run_until at a boundary executes
/// the same events in the same order as running straight through.
struct RunBoundaryHooks {
  std::vector<Time> boundaries;
  std::function<bool(Time boundary)> on_boundary;
};

class Network {
 public:
  /// Builds everything. tau_max (slot sizing) is derived from
  /// channel.comm_range_m / sound_speed_mps unless mac_config.tau_max was
  /// explicitly customized away from its default.
  Network(Simulator& sim, const ScenarioConfig& config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Schedules hello rounds, mobility updates and traffic, then runs the
  /// simulator to the configured horizon. Batch workloads (Figs. 8/9)
  /// stop early once every offered packet has been acknowledged or
  /// dropped, so completion time and energy are measured exactly.
  RunStats run();

  /// run() with boundary hooks (checkpointing). The executed event
  /// sequence is identical to the hook-free run; stats() reflects the
  /// stop point when a hook ends the run early.
  RunStats run(const RunBoundaryHooks& hooks);

  /// Sender-side completion: every offered packet acked or dropped.
  [[nodiscard]] bool workload_complete() const;

  /// Runs until `until`, without scheduling anything extra (tests drive
  /// phases manually via the accessors below).
  void run_until(Time until) { sim_.run_until(until); }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] AcousticChannel& channel() { return *channel_; }
  [[nodiscard]] const UphillRouter& router() const { return *router_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] Time traffic_start() const { return traffic_start_; }
  [[nodiscard]] Time horizon() const { return horizon_; }
  /// Multi-hop mode only; null otherwise.
  [[nodiscard]] const RelayAgent* relay(NodeId id) const {
    return relays_.empty() ? nullptr : relays_.at(id).get();
  }
  /// The static shortest-delay tree (multi-hop mode; built at traffic
  /// start from the NeighborTable estimates, null before then).
  [[nodiscard]] const RouteTable* route_table() const { return route_table_.get(); }
  /// Per-node DV state (routing == kDv only; null otherwise).
  [[nodiscard]] const DvRouter* dv_router(NodeId id) const {
    return dv_routers_.empty() ? nullptr : dv_routers_.at(id).get();
  }

  /// Aggregated statistics at the current simulation time.
  [[nodiscard]] RunStats stats() const;

  /// The realized fault timeline; null when config.fault is all-zero.
  [[nodiscard]] const FaultPlan* fault_plan() const { return fault_plan_.get(); }

  /// Diagnostic: mean one-hop degree of the as-built deployment.
  [[nodiscard]] double deployed_mean_degree() const;

  /// The spatial shard plan; null when config.shards <= 1.
  [[nodiscard]] const ShardPlan* shard_plan() const { return shard_plan_.get(); }

  /// The complete runtime state of the run — engine, every node's
  /// modem/MAC/neighbor/mobility state, traffic and route RNG streams,
  /// fault-plan loss streams, channel tally and trace position — as the
  /// checkpoint payload (docs/checkpoint.md). Saving is callable at any
  /// boundary time (i.e. between events).
  void visit_state(StateArchive& ar);
  /// Digest-verified restore at the checkpoint time: requires this
  /// (replayed) network's state to byte-match `payload`, then round-trips
  /// it through restore_state + save_state. Throws CheckpointError naming
  /// the first diverging section on any mismatch.
  void verify_restore(const std::string& payload);

 private:
  /// Conservative lookahead under current modem positions (sharded runs).
  [[nodiscard]] Duration shard_lookahead() const;
  void schedule_hello_phase();
  void schedule_mobility();
  void start_traffic();
  void schedule_faults();
  void schedule_aging();
  /// Builds the static shortest-delay tree from the neighbor tables as
  /// they stand now (a lane-0 event at traffic start).
  void rebuild_route_table();
  /// DV periodic beacons: per-node jittered HELLO broadcasts; sinks bump
  /// their sequence number each round.
  void schedule_dv_beacons();
  void schedule_next_beacon(NodeId id);
  /// DvRouter change hook: traces kRouteUpdate and schedules a
  /// rate-limited triggered-update HELLO.
  void on_route_change(NodeId id);
  void trace_fault(TraceEventKind kind, NodeId node, std::int64_t a = 0,
                   std::int64_t b = 0) const;

  Simulator& sim_;
  ScenarioConfig config_;  // lint: ckpt-skip(the checkpoint carries the scenario text)
  Rng rng_;  // lint: ckpt-skip(construction-only stream: topology + forks, never redrawn)

  std::unique_ptr<PropagationModel> propagation_;  // lint: ckpt-skip(stateless model from config)
  std::unique_ptr<ReceptionModel> reception_;      // lint: ckpt-skip(stateless model from config)
  std::unique_ptr<AcousticChannel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<UphillRouter> router_;  // lint: ckpt-skip(immutable candidates from initial positions)
  std::vector<std::unique_ptr<RelayAgent>> relays_;  ///< multi-hop mode only
  /// Static shortest-delay tree (multi-hop; null until traffic start).
  std::unique_ptr<RouteTable> route_table_;  // lint: ckpt-skip(rebuilt deterministically at traffic start)
  std::vector<std::unique_ptr<DvRouter>> dv_routers_;  ///< kDv mode only
  /// Beacon/trigger jitter streams, one per node (kDv mode), heap-held so
  /// scheduling lambdas can reference them and checkpoints can reach them.
  std::vector<std::unique_ptr<Rng>> beacon_rngs_;
  /// Relay backoff jitter streams, one per node (multi-hop mode with the
  /// reliability layer enabled), heap-held for the same reasons.
  std::vector<std::unique_ptr<Rng>> relay_rngs_;
  /// Triggered-update rate limit: no triggered HELLO before this time.
  std::vector<Time> dv_trigger_after_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  /// Single-hop routing draw streams, one per traffic source, heap-held
  /// so the emit lambdas can reference them and checkpoints can reach
  /// them (a by-value rng captured in a closure would be unserializable).
  std::vector<std::unique_ptr<Rng>> route_rngs_;
  std::vector<Vec3> initial_positions_;  // lint: ckpt-skip(set once at construction from the scenario)
  std::unique_ptr<FaultPlan> fault_plan_;  ///< null when faults disabled
  std::unique_ptr<ShardPlan> shard_plan_;  // lint: ckpt-skip(derived from config + initial positions)
  /// Wraps config.trace for sharded runs (barrier-ordered replay); the
  /// sink modems/MACs/fault tracing actually write to.
  std::unique_ptr<DeferredTraceSink> deferred_trace_;  // lint: ckpt-skip(trace plumbing, not simulation state)
  /// Counts + digests the event stream ahead of config.trace so
  /// checkpoints can record the trace position; null without a trace.
  std::unique_ptr<TallyTrace> tally_trace_;
  TraceSink* run_trace_{nullptr};

  Time traffic_start_{};  // lint: ckpt-skip(derived from config at construction)
  Time horizon_{};        // lint: ckpt-skip(derived from config at construction)
};

}  // namespace aquamac
