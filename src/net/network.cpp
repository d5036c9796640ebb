#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/sound_speed.hpp"
#include "sim/checkpoint.hpp"
#include "util/logging.hpp"

namespace aquamac {

namespace {

std::unique_ptr<PropagationModel> make_propagation(const ScenarioConfig& config) {
  // channel.spreading is threaded into the model so the channel's cutoff
  // derivation inverts the same law the model applies.
  switch (config.propagation) {
    case PropagationKind::kStraightLine:
      return std::make_unique<StraightLinePropagation>(config.sound_speed_mps,
                                                       config.channel.spreading);
    case PropagationKind::kBellhopLite:
      // Mild downward-refracting gradient (0.017 1/s is the canonical
      // deep-isothermal value) anchored at the configured surface speed.
      return std::make_unique<BellhopLitePropagation>(
          std::make_shared<LinearProfile>(config.sound_speed_mps, 0.017),
          config.channel.spreading);
  }
  throw std::invalid_argument("unhandled PropagationKind");
}

std::unique_ptr<ReceptionModel> make_reception(const ScenarioConfig& config) {
  switch (config.reception) {
    case ReceptionKind::kDeterministic:
      return std::make_unique<DeterministicCollisionModel>();
    case ReceptionKind::kSinrPer:
      return std::make_unique<SinrPerModel>(config.modulation);
  }
  throw std::invalid_argument("unhandled ReceptionKind");
}

}  // namespace

Network::Network(Simulator& sim, const ScenarioConfig& config)
    : sim_{sim}, config_{config}, rng_{config.seed} {
  if (config_.node_count == 0) throw std::invalid_argument("node_count must be > 0");

  propagation_ = make_propagation(config_);
  reception_ = make_reception(config_);
  channel_ = std::make_unique<AcousticChannel>(sim_, *propagation_, config_.channel);
  channel_->reserve(config_.node_count);
  AQUAMAC_LOG(config_.logger, LogLevel::kInfo)
      << "channel: interference cutoff " << channel_->interference_cutoff_m()
      << " m, effective floor " << channel_->effective_interference_floor_db()
      << " dB, spatial index " << (config_.channel.use_spatial_index ? "on" : "off");

  // Slot sizing: tau_max is the max-range propagation delay (§4.1) unless
  // the caller overrode the MacConfig default.
  if (config_.mac_config.tau_max == Duration::seconds(1)) {
    config_.mac_config.tau_max =
        Duration::from_seconds(config_.channel.comm_range_m / config_.sound_speed_mps);
  }

  Rng deployment_rng = rng_.fork(0xDE9107);
  initial_positions_ =
      generate_deployment(config_.deployment, config_.node_count, deployment_rng);

  // Lanes are declared unconditionally (node i -> lane i + 1): serial and
  // sharded runs must attribute events to the same lanes for their
  // ordering keys — hence their digests — to be bit-identical.
  if (config_.node_count + 1 > Simulator::kMaxLanes) {
    throw std::invalid_argument("node_count exceeds the simulator's lane space");
  }
  sim_.set_lane_count(static_cast<std::uint32_t>(config_.node_count) + 1);

  // The tally sits between producers and config.trace so checkpoints can
  // record the trace position; it forwards every event verbatim.
  if (config_.trace != nullptr) {
    tally_trace_ = std::make_unique<TallyTrace>(*config_.trace);
    run_trace_ = tally_trace_.get();
  }
  if (config_.shards > 1) {
    // Shard cells are the channel's interference cutoff: co-located or
    // near nodes share a cell (hence a shard), and the cross-shard
    // minimum distance the lookahead derives from stays macroscopic.
    shard_plan_ = std::make_unique<ShardPlan>(ShardPlan::build(
        initial_positions_, config_.shards, channel_->interference_cutoff_m()));
    ShardingOptions sharding{};
    sharding.shard_of_node = shard_plan_->shard_of_node();
    sharding.shards = shard_plan_->shards();
    sharding.lookahead = [this] { return shard_lookahead(); };
    sim_.enable_sharding(std::move(sharding));
    channel_->prepare_parallel();
    if (tally_trace_ != nullptr) {
      // The tally must sit *inside* the deferral so it sees events in
      // barrier-ordered (serial-identical) order.
      deferred_trace_ = std::make_unique<DeferredTraceSink>(sim_, *tally_trace_);
      run_trace_ = deferred_trace_.get();
    }
    AQUAMAC_LOG(config_.logger, LogLevel::kInfo)
        << "sharded engine: " << shard_plan_->shards() << " shards, cell "
        << shard_plan_->cell_size_m() << " m";
  }

  ModemConfig modem_config{};
  modem_config.bit_rate_bps = config_.bit_rate_bps;
  modem_config.power = config_.power;

  nodes_.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const auto id = static_cast<NodeId>(i);
    // Anything a node's construction schedules belongs to the node's lane.
    const Simulator::LaneGuard lane{sim_, id + 1};
    auto node = std::make_unique<Node>(sim_, id, initial_positions_[i], modem_config,
                                       *reception_, rng_.fork(0x40DE00 + i));
    channel_->attach(node->modem());
    if (run_trace_ != nullptr) node->modem().set_trace(run_trace_);
    if (config_.clock_offset_stddev_s > 0.0) {
      Rng clock_rng = rng_.fork(0xC10C0 + i);
      node->modem().set_clock_offset(
          Duration::from_seconds(clock_rng.normal(0.0, config_.clock_offset_stddev_s)));
    }

    std::string tag{"n"};
    tag += std::to_string(i);
    auto mac = make_mac(config_.mac, sim_, node->modem(), node->neighbors(),
                        config_.mac_config, rng_.fork(0x3AC000 + i),
                        config_.logger.with_tag(tag));
    node->set_mac(std::move(mac));
    if (run_trace_ != nullptr) node->mac().set_trace(run_trace_);

    if (config_.enable_mobility) {
      Rng mobility_rng = rng_.fork(0x30B000 + i);
      MobilityConfig mobility_config = config_.mobility;
      mobility_config.width_m = config_.deployment.width_m;
      mobility_config.length_m = config_.deployment.length_m;
      mobility_config.depth_m = config_.deployment.depth_m;
      node->set_mobility(Mobility(Mobility::random_kind(mobility_rng), mobility_config,
                                  initial_positions_[i], mobility_rng));
    }
    nodes_.push_back(std::move(node));
  }

  router_ = std::make_unique<UphillRouter>(initial_positions_, config_.channel.comm_range_m);

  if (config_.multi_hop) {
    // Sinks: the shallowest sink_fraction of nodes (at least one).
    std::vector<NodeId> by_depth(config_.node_count);
    for (std::size_t i = 0; i < config_.node_count; ++i) by_depth[i] = static_cast<NodeId>(i);
    std::sort(by_depth.begin(), by_depth.end(), [this](NodeId a, NodeId b) {
      return initial_positions_[a].z < initial_positions_[b].z;
    });
    const auto sink_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.sink_fraction *
                                    static_cast<double>(config_.node_count)));
    std::vector<bool> is_sink(config_.node_count, false);
    for (std::size_t i = 0; i < sink_count; ++i) is_sink[by_depth[i]] = true;

    if (config_.routing == RoutingKind::kDv) {
      // Per-node DV state plus the MAC piggyback hooks: every outgoing
      // frame is stamped with the node's best route, every decodable
      // reception is ingested, and dead/evicted neighbors invalidate the
      // routes that ran through them (docs/routing.md).
      dv_routers_.reserve(config_.node_count);
      beacon_rngs_.reserve(config_.node_count);
      dv_trigger_after_.assign(config_.node_count, Time::zero());
      for (std::size_t i = 0; i < config_.node_count; ++i) {
        const auto id = static_cast<NodeId>(i);
        dv_routers_.push_back(std::make_unique<DvRouter>(id, is_sink[id]));
        beacon_rngs_.push_back(std::make_unique<Rng>(rng_.fork(0xBEAC00 + i)));
        DvRouter* dv = dv_routers_.back().get();
        MacProtocol* mac = &nodes_[i]->mac();
        mac->set_frame_stamp_hook([dv](Frame& frame) { dv->stamp(frame); });
        mac->set_frame_observe_hook([this, dv](const Frame& frame, Duration measured_delay) {
          dv->observe(frame, measured_delay, sim_.now());
        });
        mac->set_neighbor_down_hook([dv](NodeId neighbor) { dv->neighbor_down(neighbor); });
        dv->set_route_change_hook([this, id] { on_route_change(id); });
      }
    }

    relays_.reserve(config_.node_count);
    if (config_.reliability.enabled()) relay_rngs_.reserve(config_.node_count);
    for (std::size_t i = 0; i < config_.node_count; ++i) {
      const auto id = static_cast<NodeId>(i);
      RelayAgent::NextHopFn next_hop;
      switch (config_.routing) {
        case RoutingKind::kGreedy: {
          const UphillRouter* router = router_.get();
          if (config_.greedy_blacklist && config_.mac_config.dead_neighbor_threshold > 0) {
            // ROADMAP 2c: the depth rule learns from the PR 4 probe
            // signal — neighbors the MAC currently declares dead are
            // skipped, so greedy stops feeding a relay through its
            // outages. Reinstatement probes clear the blacklist entry.
            const MacProtocol* mac = &nodes_[i]->mac();
            next_hop = [router, mac](NodeId self) {
              return router->shallowest_candidate(
                  self, [mac](NodeId n) { return mac->neighbor_dead(n); });
            };
          } else {
            next_hop = [router](NodeId self) { return router->shallowest_candidate(self); };
          }
          break;
        }
        case RoutingKind::kTree:
          next_hop = [this](NodeId self) -> std::optional<NodeId> {
            if (route_table_ == nullptr) return std::nullopt;
            return route_table_->next_hop(self);
          };
          break;
        case RoutingKind::kDv: {
          DvRouter* dv = dv_routers_[i].get();
          next_hop = [dv](NodeId) { return dv->next_hop(); };
          break;
        }
      }
      relays_.push_back(std::make_unique<RelayAgent>(sim_, nodes_[i]->mac(), id, is_sink[id],
                                                     std::move(next_hop), config_.hop_limit,
                                                     config_.reliability));
      RelayAgent* relay_agent = relays_.back().get();
      if (run_trace_ != nullptr) relay_agent->set_trace(run_trace_);
      if (config_.reliability.enabled()) {
        relay_rngs_.push_back(std::make_unique<Rng>(rng_.fork(0xBACC00 + i)));
        relay_agent->set_backoff_rng(relay_rngs_.back().get());
        const MacProtocol* mac = &nodes_[i]->mac();
        const UphillRouter* router = router_.get();
        switch (config_.routing) {
          case RoutingKind::kDv: {
            DvRouter* dv = dv_routers_[i].get();
            relay_agent->set_alt_next_hop([dv](NodeId, NodeId exclude) {
              return dv->next_hop_excluding(exclude);
            });
            break;
          }
          case RoutingKind::kGreedy:
          case RoutingKind::kTree:
            // Alternate = best depth-rule candidate avoiding the failed
            // hop (and dead neighbors): still strictly uphill, so the
            // failover path cannot loop even off the tree.
            relay_agent->set_alt_next_hop([router, mac](NodeId self, NodeId exclude) {
              return router->shallowest_candidate(self, [mac, exclude](NodeId n) {
                return n == exclude || mac->neighbor_dead(n);
              });
            });
            break;
        }
      }
      // The static tree is every mode's hop-stretch yardstick.
      relay_agent->set_tree_hops([this](NodeId node) -> std::uint32_t {
        if (route_table_ == nullptr || !route_table_->reachable(node)) return 0;
        return route_table_->hops(node);
      });
      if (config_.routing == RoutingKind::kTree) {
        relay_agent->set_advertised_hops([this](NodeId node) -> std::uint32_t {
          if (route_table_ == nullptr || !route_table_->reachable(node)) return 0;
          return route_table_->hops(node);
        });
      } else if (config_.routing == RoutingKind::kDv) {
        DvRouter* dv = dv_routers_[i].get();
        relay_agent->set_advertised_hops([dv](NodeId) -> std::uint32_t {
          const DvRouter::Entry* best = dv->best();
          return best != nullptr ? best->hops : 0;
        });
      }
    }
  }

  traffic_start_ = Time::zero() + config_.hello_window;
  horizon_ = traffic_start_ + config_.sim_time;

  if (config_.multi_hop) {
    // The tree is built once discovery has run: a global (lane-0) event
    // at traffic start, so sharded runs read every neighbor table at a
    // barrier. Lane 0 sorts ahead of node lanes at the same timestamp, so
    // the first originations already see the routes.
    const Simulator::LaneGuard lane{sim_, 0};
    sim_.at(traffic_start_, [this] { rebuild_route_table(); });
  }

  if (config_.fault.enabled()) {
    // The plan forks dedicated streams off the root RNG (fork is const),
    // so its construction never perturbs any stream drawn above.
    fault_plan_ = std::make_unique<FaultPlan>(config_.fault, config_.node_count, horizon_, rng_);
    for (std::size_t i = 0; i < config_.node_count; ++i) {
      const auto id = static_cast<NodeId>(i);
      if (config_.fault.drift_enabled()) {
        nodes_[i]->modem().set_clock_drift_ppm(fault_plan_->drift_ppm(id));
      }
    }
    if (fault_plan_->channel_impairment_enabled()) {
      FaultPlan* plan = fault_plan_.get();
      for (auto& node : nodes_) {
        node->modem().set_impairment(
            [plan](NodeId receiver, Time at) { return plan->arrival_lost(receiver, at); });
      }
    }
  }

  // Traffic sources: the aggregate offered load is split across nodes
  // that have at least one uphill neighbor (Fig. 1 semantics).
  const double node_rate = per_node_packet_rate(config_.traffic, router_->source_count());
  const std::size_t sources = router_->source_count();
  std::uint32_t batch_per_source = 0;
  std::uint32_t batch_remainder = 0;
  if (sources > 0) {
    batch_per_source = config_.traffic.batch_packets / static_cast<std::uint32_t>(sources);
    batch_remainder = config_.traffic.batch_packets % static_cast<std::uint32_t>(sources);
  }

  std::uint32_t assigned_extra = 0;
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const auto id = static_cast<NodeId>(i);
    if (router_->is_sink(id)) continue;
    if (config_.multi_hop && relays_[i]->is_sink()) continue;
    Rng traffic_rng = rng_.fork(0x7AFF00 + i);
    MacProtocol* mac = &nodes_[i]->mac();
    const UphillRouter* router = router_.get();
    TrafficSource::EmitFn emit;
    if (config_.multi_hop) {
      RelayAgent* relay_agent = relays_[i].get();
      emit = [relay_agent](std::uint32_t bits) { relay_agent->originate(bits); };
    } else {
      // The route stream lives on the Network (not by value in the
      // closure) so checkpoints can serialize it; route_rngs_[k] pairs
      // with sources_[k].
      route_rngs_.push_back(std::make_unique<Rng>(rng_.fork(0x90E700 + i)));
      Rng* route_rng = route_rngs_.back().get();
      emit = [mac, router, id, route_rng](std::uint32_t bits) {
        if (const auto dst = router->pick_destination(id, *route_rng)) {
          mac->enqueue_packet(*dst, bits);
        }
      };
    }
    auto source = std::make_unique<TrafficSource>(sim_, config_.traffic, node_rate,
                                                  traffic_rng, std::move(emit));
    std::uint32_t batch = batch_per_source;
    if (assigned_extra < batch_remainder) {
      ++batch;
      ++assigned_extra;
    }
    {
      const Simulator::LaneGuard lane{sim_, id + 1};
      source->start(traffic_start_, batch);
    }
    sources_.push_back(std::move(source));
  }
}

void Network::schedule_hello_phase() {
  // §4.3: each deployed sensor broadcasts a Hello with its timestamp.
  // Rounds are spread uniformly over the hello window; later rounds fill
  // entries whose first Hello collided.
  Rng hello_rng = rng_.fork(0x4E110);
  const double window_s = config_.hello_window.to_seconds();
  const std::uint32_t rounds = std::max<std::uint32_t>(config_.hello_rounds, 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Simulator::LaneGuard lane{sim_, static_cast<std::uint32_t>(i) + 1};
    for (std::uint32_t round = 0; round < rounds; ++round) {
      const double lo = window_s * round / rounds;
      const double hi = window_s * (round + 1) / rounds - 0.05;
      const Time when = Time::from_seconds(hello_rng.uniform(lo, std::max(lo, hi)));
      MacProtocol* mac = &nodes_[i]->mac();
      sim_.at(when, [mac] { mac->broadcast_hello(); });
    }
  }
}

void Network::schedule_mobility() {
  if (!config_.enable_mobility) return;
  const Duration step = config_.mobility.update_interval;
  sim_.in(step, [this, step] {
    for (auto& node : nodes_) node->advance_position(step);
    if (sim_.now() + step <= horizon_) schedule_mobility();
  });
}

void Network::start_traffic() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Simulator::LaneGuard lane{sim_, static_cast<std::uint32_t>(i) + 1};
    nodes_[i]->mac().start();
  }
}

void Network::trace_fault(TraceEventKind kind, NodeId node, std::int64_t a,
                          std::int64_t b) const {
  if (run_trace_ == nullptr) return;
  TraceEvent event{};
  event.kind = kind;
  event.at = sim_.now();
  event.node = node;
  event.a = a;
  event.b = b;
  run_trace_->record(event);
}

void Network::schedule_faults() {
  if (fault_plan_ == nullptr) return;
  const FaultConfig& fc = fault_plan_->config();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    const Simulator::LaneGuard lane{sim_, id + 1};
    AcousticModem* modem = &nodes_[i]->modem();
    MacProtocol* mac = &nodes_[i]->mac();
    DvRouter* dv = dv_routers_.empty() ? nullptr : dv_routers_[i].get();

    for (const TimeInterval& iv : fault_plan_->down_intervals(id)) {
      if (iv.begin >= horizon_) break;
      sim_.at(iv.begin, [this, id, modem] {
        trace_fault(TraceEventKind::kFaultNodeDown, id);
        modem->set_operational(false);
      });
      if (iv.end >= horizon_) continue;  // never rejoins within this run
      sim_.at(iv.end, [this, id, modem, mac, dv] {
        modem->set_operational(true);
        mac->reset_mac_state();
        // Routing amnesia rides along: stale routes through neighbors
        // whose state moved on during the outage must not survive; a
        // rejoining sink bumps its sequence so the network re-learns it
        // as fresh state (docs/routing.md).
        if (dv != nullptr) dv->reset_routes();
        trace_fault(TraceEventKind::kFaultNodeUp, id);
        // Re-announce so neighbors refresh their delay to us and we start
        // re-learning theirs from whatever we overhear.
        mac->broadcast_hello();
      });
    }

    const std::vector<Duration>& steps = fault_plan_->jitter_steps(id);
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const Time when = Time::zero() + fc.drift_jitter_interval * static_cast<std::int64_t>(k + 1);
      if (when >= horizon_) break;
      const Duration step = steps[k];
      sim_.at(when, [this, id, modem, step] {
        modem->add_clock_jitter(step);
        trace_fault(TraceEventKind::kFaultClockStep, id, step.count_ns(),
                    modem->clock_offset().count_ns());
      });
    }

    if (config_.trace != nullptr) {
      for (const TimeInterval& iv : fault_plan_->ge_bad_intervals(id)) {
        if (iv.begin >= horizon_) break;
        sim_.at(iv.begin, [this, id] { trace_fault(TraceEventKind::kFaultBurstBegin, id); });
        if (iv.end < horizon_) {
          sim_.at(iv.end, [this, id] { trace_fault(TraceEventKind::kFaultBurstEnd, id); });
        }
      }
    }
  }

  if (config_.trace != nullptr) {
    for (const TimeInterval& iv : fault_plan_->storms()) {
      if (iv.begin >= horizon_) break;
      sim_.at(iv.begin, [this] { trace_fault(TraceEventKind::kFaultStormBegin, kNoNode); });
      if (iv.end < horizon_) {
        sim_.at(iv.end, [this] { trace_fault(TraceEventKind::kFaultStormEnd, kNoNode); });
      }
    }
  }
}

void Network::rebuild_route_table() {
  std::vector<std::map<NodeId, Duration>> delays(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const auto& [neighbor, entry] : nodes_[i]->neighbors().entries()) {
      delays[i][neighbor] = entry.delay;
    }
  }
  std::vector<bool> sinks(nodes_.size(), false);
  for (std::size_t i = 0; i < nodes_.size(); ++i) sinks[i] = relays_[i]->is_sink();
  route_table_ = std::make_unique<RouteTable>(RouteTable::build(delays, sinks));
  AQUAMAC_LOG(config_.logger, LogLevel::kInfo)
      << "route table: " << route_table_->routed_count() << "/"
      << (nodes_.size() -
          static_cast<std::size_t>(std::count(sinks.begin(), sinks.end(), true)))
      << " non-sink nodes routed";
}

void Network::schedule_dv_beacons() {
  if (dv_routers_.empty()) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    const Simulator::LaneGuard lane{sim_, id + 1};
    schedule_next_beacon(id);
  }
}

void Network::schedule_next_beacon(NodeId id) {
  // Each round waits beacon * uniform(0.75, 1.25): periodic enough to
  // carry the sinks' sequence waves, jittered enough that the network's
  // beacons never synchronize into collision bursts.
  const Duration wait = Duration::from_seconds(config_.routing_beacon.to_seconds() *
                                               beacon_rngs_[id]->uniform(0.75, 1.25));
  sim_.in(wait, [this, id] {
    DvRouter& dv = *dv_routers_[id];
    if (dv.is_sink()) dv.bump_own_seq();
    // A route whose via carried no ad for ~3.5 beacon rounds is stale: on
    // settled paths the via's sequence wave re-stamps the entry every
    // round, so only silently-partitioned (or routeless) vias expire.
    const Duration ttl = Duration::from_seconds(config_.routing_beacon.to_seconds() * 3.5);
    if (sim_.now() > Time::zero() + ttl) dv.expire_stale(sim_.now() - ttl);
    nodes_[id]->mac().broadcast_hello();
    if (sim_.now() < horizon_) schedule_next_beacon(id);
  });
}

void Network::on_route_change(NodeId id) {
  const DvRouter& dv = *dv_routers_[id];
  if (run_trace_ != nullptr) {
    TraceEvent event{};
    event.kind = TraceEventKind::kRouteUpdate;
    event.at = sim_.now();
    event.node = id;
    const DvRouter::Entry* best = dv.best();
    if (best != nullptr) {
      event.src = best->via;
      event.dst = dv.best_sink();
      event.a = best->cost.count_ns();
      event.b = best->hops;
    } else {
      event.b = -1;  // route lost
    }
    run_trace_->record(event);
  }
  // DSDV triggered update: re-advertise the change soon so convergence
  // runs at per-hop frame latency, not at the beacon period. Rate-limited
  // per node so convergence waves cannot storm the contention MAC.
  if (sim_.now() < dv_trigger_after_[id]) return;
  dv_trigger_after_[id] = sim_.now() + Duration::seconds(2);
  MacProtocol* mac = &nodes_[id]->mac();
  const Duration delay = Duration::from_seconds(beacon_rngs_[id]->uniform(0.2, 1.0));
  sim_.in(delay, [mac] { mac->broadcast_hello(); });
}

void Network::schedule_aging() {
  const Duration age = config_.mac_config.neighbor_max_age;
  if (age.is_zero()) return;
  const Duration step =
      std::max(Duration::nanoseconds(age.count_ns() / 2), Duration::seconds(1));
  sim_.in(step, [this, step] {
    for (auto& node : nodes_) node->mac().age_neighbors();
    if (sim_.now() + step <= horizon_) schedule_aging();
  });
}

RunStats Network::run() { return run(RunBoundaryHooks{}); }

RunStats Network::run(const RunBoundaryHooks& hooks) {
  schedule_hello_phase();
  schedule_mobility();
  start_traffic();
  schedule_faults();
  schedule_aging();
  schedule_dv_beacons();
  if (config_.node_failure_fraction > 0.0) {
    Rng failure_rng = rng_.fork(0xDEAD);
    const auto casualties = static_cast<std::size_t>(
        config_.node_failure_fraction * static_cast<double>(config_.node_count));
    // Fisher-Yates prefix over node ids.
    std::vector<NodeId> ids(config_.node_count);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NodeId>(i);
    for (std::size_t i = 0; i < casualties && i + 1 < ids.size(); ++i) {
      const std::size_t j = i + failure_rng.below(ids.size() - i);
      std::swap(ids[i], ids[j]);
    }
    const Time when = traffic_start_ + config_.node_failure_time;
    for (std::size_t i = 0; i < casualties; ++i) {
      const Simulator::LaneGuard lane{sim_, ids[i] + 1};
      AcousticModem* modem = &nodes_[ids[i]]->modem();
      sim_.at(when, [modem] { modem->set_operational(false); });
    }
  }

  // Advances to `target`, pausing at each pending hook boundary on the
  // way (splitting run_until at boundary times is non-perturbing; the
  // batch polling below relies on the same property). Returns false when
  // a hook asked to stop the run.
  std::size_t next_boundary = 0;
  const auto run_to = [this, &hooks, &next_boundary](Time target) {
    while (next_boundary < hooks.boundaries.size() &&
           hooks.boundaries[next_boundary] <= target) {
      const Time boundary = hooks.boundaries[next_boundary];
      sim_.run_until(boundary);
      ++next_boundary;
      if (hooks.on_boundary && !hooks.on_boundary(boundary)) return false;
    }
    sim_.run_until(target);
    return true;
  };

  if (config_.traffic.mode == TrafficMode::kBatch) {
    // Poll in coarse steps; the step only bounds how late we notice
    // completion, not any protocol timing.
    const Duration step = Duration::seconds(5);
    Time poll = traffic_start_ + Duration::seconds(2);
    bool keep_going = true;
    while (poll < horizon_) {
      keep_going = run_to(poll);
      if (!keep_going || workload_complete()) break;
      poll += step;
    }
    if (keep_going && !workload_complete()) run_to(horizon_);
  } else {
    run_to(horizon_);
  }
  return stats();
}

bool Network::workload_complete() const {
  for (const auto& node : nodes_) {
    const MacCounters& c = node->mac().counters();
    if (c.packets_sent_ok + c.packets_dropped < c.packets_offered) return false;
  }
  return true;
}

RunStats Network::stats() const {
  MacCounters total{};
  double energy_j = 0.0;
  std::vector<double> per_source_acked;
  const Duration elapsed = sim_.now() - Time::zero();
  for (const auto& node : nodes_) {
    const MacCounters& c = node->mac().counters();
    total += c;
    energy_j += node->modem().energy().energy_joules(elapsed);
    if (c.packets_offered > 0) {
      per_source_acked.push_back(static_cast<double>(c.packets_sent_ok));
    }
  }
  RunStats stats = compute_run_stats(total, energy_j, nodes_.size(), elapsed,
                                     config_.sim_time, traffic_start_);
  stats.fairness_index = jain_fairness(per_source_acked);

  if (!relays_.empty()) {
    RelayCounters relay_total{};
    for (const auto& relay_agent : relays_) relay_total += relay_agent->counters();
    stats.e2e_originated = relay_total.originated;
    stats.e2e_arrived_at_sink = relay_total.arrived_at_sink;
    if (relay_total.originated > 0) {
      stats.e2e_delivery_ratio = static_cast<double>(relay_total.arrived_at_sink) /
                                 static_cast<double>(relay_total.originated);
    }
    if (relay_total.arrived_at_sink > 0) {
      const auto arrived = static_cast<double>(relay_total.arrived_at_sink);
      stats.mean_hops = static_cast<double>(relay_total.total_hops) / arrived;
      stats.mean_e2e_latency_s = relay_total.total_e2e_latency.to_seconds() / arrived;
    }
    stats.e2e_forwarded = relay_total.forwarded;
    stats.e2e_dropped_no_route = relay_total.dropped_no_route;
    stats.e2e_dropped_hop_limit = relay_total.dropped_hop_limit;
    stats.e2e_dropped_mac = relay_total.dropped_mac;
    if (relay_total.total_tree_hops > 0) {
      stats.hop_stretch = static_cast<double>(relay_total.total_stretch_hops) /
                          static_cast<double>(relay_total.total_tree_hops);
    }
    if (relay_total.total_hops > 0) {
      stats.mean_per_hop_latency_s = relay_total.total_e2e_latency.to_seconds() /
                                     static_cast<double>(relay_total.total_hops);
    }
    stats.e2e_retransmissions = relay_total.retransmissions;
    stats.e2e_failovers = relay_total.failovers;
    stats.e2e_dead_letter_exhausted = relay_total.dead_letter_exhausted;
    stats.e2e_dead_letter_overflow = relay_total.dead_letter_overflow;
    stats.e2e_dead_letter_no_route = relay_total.dead_letter_no_route;
    stats.e2e_duplicates_suppressed = relay_total.duplicates_suppressed;
    stats.relay_queue_highwater = relay_total.queue_highwater;
  }
  return stats;
}

double Network::deployed_mean_degree() const {
  return mean_degree(initial_positions_, config_.channel.comm_range_m);
}

void Network::visit_state(StateArchive& ar) {
  ar.section("engine", [this](StateArchive& a) { a(sim_); });
  ar.section("nodes", [this](StateArchive& a) {
    a.expect(nodes_.size(), "checkpoint node count differs from the scenario's");
    for (const auto& node : nodes_) {
      a(node->modem(), node->mac(), node->neighbors(), node->mobility());
    }
  });
  ar.section("traffic", [this](StateArchive& a) {
    a.expect(sources_.size(), "checkpoint traffic-source count differs from the scenario's");
    for (const auto& source : sources_) a(*source);
    a.expect(route_rngs_.size(), "checkpoint route-stream count differs from the scenario's");
    for (const auto& route_rng : route_rngs_) a(*route_rng);
  });
  ar.section("faults", [this](StateArchive& a) {
    a.expect(fault_plan_ != nullptr,
             "checkpoint fault-plan presence differs from the scenario's");
    if (fault_plan_ != nullptr) a(*fault_plan_);
  });
  ar.section("routing", [this](StateArchive& a) {
    a.expect(!relays_.empty(), "checkpoint relay presence differs from the scenario's");
    for (const auto& relay_agent : relays_) a(*relay_agent);
    a.expect(!relay_rngs_.empty(), "checkpoint relay-rng presence differs from the scenario's");
    for (const auto& relay_rng : relay_rngs_) a(*relay_rng);
    a.expect(!dv_routers_.empty(), "checkpoint DV-router presence differs from the scenario's");
    if (dv_routers_.empty()) return;
    for (const auto& dv : dv_routers_) a(*dv);
    for (const auto& beacon_rng : beacon_rngs_) a(*beacon_rng);
    for (Time& after : dv_trigger_after_) a(after);
  });
  ar.section("channel", [this](StateArchive& a) {
    std::uint64_t transmissions = channel_->transmissions();
    a(transmissions);
    if (a.loading()) channel_->set_transmissions(transmissions);
  });
  ar.section("trace", [this](StateArchive& a) {
    a.expect(tally_trace_ != nullptr, "checkpoint trace presence differs from this run's");
    if (tally_trace_ == nullptr) return;
    std::uint64_t count = tally_trace_->count();
    std::uint64_t digest = tally_trace_->digest();
    a(count, digest);
    if (a.loading()) tally_trace_->set_state(count, digest);
  });
}

void Network::verify_restore(const std::string& payload) {
  StateWriter replayed;
  save_state(*this, replayed);
  if (replayed.bytes() != payload) {
    throw CheckpointError("replayed state diverges from checkpoint: " +
                          describe_payload_difference(payload, replayed.bytes(),
                                                      replayed.sections()));
  }
  // The byte match proves equality; the decode + re-encode round trip
  // additionally exercises every loading path, so a field a visit_state
  // body forgot to assign (or assigns wrongly) cannot hide.
  StateReader reader{payload};
  restore_state(*this, reader);
  if (reader.remaining() != 0) {
    throw CheckpointError("checkpoint payload has trailing bytes after restore");
  }
  StateWriter round_trip;
  save_state(*this, round_trip);
  if (round_trip.bytes() != payload) {
    throw CheckpointError("checkpoint decode/re-encode drift: " +
                          describe_payload_difference(payload, round_trip.bytes(),
                                                      round_trip.sections()));
  }
}

Duration Network::shard_lookahead() const {
  std::vector<Vec3> positions;
  positions.reserve(nodes_.size());
  for (const auto& node : nodes_) positions.push_back(node->modem().position());
  const double dist = shard_plan_->min_cross_shard_distance(positions);
  if (!std::isfinite(dist)) {
    // A single populated shard: no cross-shard influence exists at all,
    // so any horizon is conservative. One hour keeps windows finite.
    return Duration::seconds(3600);
  }
  // Positions are frozen inside a window (mobility is a global, hence
  // barrier-time, event and the engine re-queries this after every global
  // batch), so the model's delay bound applies verbatim; the microsecond
  // guard just absorbs any residual floating-point slack on top of the
  // bound's own safety margins.
  const Duration bound =
      propagation_->min_delay(dist, config_.deployment.depth_m);
  const Duration guard = Duration::microseconds(1);
  return bound > guard ? bound - guard : Duration::nanoseconds(1);
}

}  // namespace aquamac
