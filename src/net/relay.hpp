#pragma once
// Multi-hop relay layer (§3.1/Fig. 1: "sensors must transmit sensing
// information to surface sinks via multi-hop transmission").
//
// One RelayAgent sits above each node's MAC. Origins stamp an E2eHeader;
// every intermediate delivery re-enqueues the packet toward the next hop
// named by the routing layer (greedy, static tree or DvRouter —
// docs/routing.md); sinks absorb and account. The MAC below stays exactly
// the paper's one-hop protocol — relaying is pure composition through the
// MAC's delivery/drop handlers.
//
// With ReliabilityConfig::enabled() the agent additionally runs a
// hop-by-hop custody/ARQ layer (docs/reliability.md): a bounded custody
// queue above the MAC, seeded exponential backoff + jitter after MAC
// drops, bounded retransmissions with next-hop failover through the
// routing layer, and e2e-id dedup so a packet is taken into custody (and
// delivered at a sink) at most once per node.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "mac/mac_protocol.hpp"
#include "net/routing.hpp"
#include "util/rng.hpp"

namespace aquamac {

/// What a full custody queue does with the overflow (docs/reliability.md):
///   kTailDrop    — the arriving packet is refused (dead letter);
///   kOldestFirst — the oldest packet waiting in backoff is evicted to
///                  make room; the arriving packet is admitted. Falls back
///                  to tail-drop when nothing is evictable (everything in
///                  custody is currently inside the MAC).
enum class RelayDropPolicy : std::uint8_t { kTailDrop, kOldestFirst };

[[nodiscard]] std::string_view to_string(RelayDropPolicy policy);

/// Hop-by-hop reliability knobs (`reliability.*` scenario keys). The
/// defaults keep the ARQ off — max_retries 0 reproduces the legacy relay
/// bit-for-bit — so existing scenarios and digests are unchanged.
struct ReliabilityConfig {
  /// Custody retransmission budget per packet per node; 0 disables the
  /// whole reliability layer (legacy drop-on-MAC-failure relay).
  std::uint32_t max_retries{0};
  /// Bound on packets in custody at one node (the relay queue).
  std::uint32_t queue_limit{32};
  RelayDropPolicy drop_policy{RelayDropPolicy::kTailDrop};
  /// Backoff before retry r is base * 2^(r-1), capped at backoff_max,
  /// then stretched by a seeded uniform [1, 1.5) jitter factor.
  Duration backoff_base{Duration::seconds(5)};
  Duration backoff_max{Duration::seconds(60)};

  [[nodiscard]] bool enabled() const { return max_retries > 0; }
};

/// Network-layer counters, aggregated by Network::stats in multi-hop mode.
struct RelayCounters {
  std::uint64_t originated{0};       ///< packets stamped at this origin
  std::uint64_t arrived_at_sink{0};  ///< packets absorbed here as sink
  std::uint64_t forwarded{0};        ///< intermediate re-enqueues
  std::uint64_t dropped_no_route{0}; ///< routing layer named no next hop
  std::uint64_t dropped_hop_limit{0};
  std::uint64_t dropped_mac{0};      ///< MAC exhausted retries on a hop
  Duration total_e2e_latency{};      ///< summed over sink arrivals
  std::uint64_t total_hops{0};       ///< summed over sink arrivals
  /// Hop-stretch accumulators, summed only over arrivals whose origin the
  /// static tree can route, so the ratio compares like with like:
  /// realized hops (numerator) over tree hops (denominator).
  std::uint64_t total_stretch_hops{0};
  std::uint64_t total_tree_hops{0};

  // --- reliability layer (all zero with the ARQ off) -------------------
  std::uint64_t retransmissions{0};  ///< custody re-enqueues after backoff
  std::uint64_t failovers{0};        ///< retransmissions via an alternate hop
  std::uint64_t dead_letter_exhausted{0};  ///< custody retry budget spent
  std::uint64_t dead_letter_overflow{0};   ///< custody queue overflow drops
  std::uint64_t dead_letter_no_route{0};   ///< no hop left at retry time
  std::uint64_t duplicates_suppressed{0};  ///< e2e-id dedup hits
  std::uint64_t queue_highwater{0};        ///< max custody occupancy seen

  RelayCounters& operator+=(const RelayCounters& o) { return merge_counters(*this, o); }

  /// Checkpoint state: every field, in field-list order.
  void visit_state(StateArchive& ar);

  /// The one field list (see MacCounters::for_each_field). The aggregated
  /// high-water mark is the worst single node, not a network sum.
  template <class Fn, class... C>
  static void for_each_field(Fn&& fn, C&... c) {
    fn(kSum, c.originated...);
    fn(kSum, c.arrived_at_sink...);
    fn(kSum, c.forwarded...);
    fn(kSum, c.dropped_no_route...);
    fn(kSum, c.dropped_hop_limit...);
    fn(kSum, c.dropped_mac...);
    fn(kSum, c.total_e2e_latency...);
    fn(kSum, c.total_hops...);
    fn(kSum, c.total_stretch_hops...);
    fn(kSum, c.total_tree_hops...);
    fn(kSum, c.retransmissions...);
    fn(kSum, c.failovers...);
    fn(kSum, c.dead_letter_exhausted...);
    fn(kSum, c.dead_letter_overflow...);
    fn(kSum, c.dead_letter_no_route...);
    fn(kSum, c.duplicates_suppressed...);
    fn(kMax, c.queue_highwater...);
  }
};

class RelayAgent {
 public:
  /// Routing-layer next hop for this node; nullopt when no route exists.
  using NextHopFn = std::function<std::optional<NodeId>(NodeId self)>;
  /// Alternate next hop avoiding `exclude` (reliability failover);
  /// nullopt when the routing layer has no alternative.
  using AltHopFn = std::function<std::optional<NodeId>(NodeId self, NodeId exclude)>;
  /// Hop count the routing layer currently advertises for `node` (0 when
  /// unknown): the static-tree depth for stretch accounting and the
  /// auditor's advertised-route-length bound.
  using RouteHopsFn = std::function<std::uint32_t(NodeId node)>;

  RelayAgent(Simulator& sim, MacProtocol& mac, NodeId self, bool is_sink, NextHopFn next_hop,
             std::uint8_t hop_limit = 16, ReliabilityConfig reliability = {});

  /// Origin-side entry: stamps the header and enqueues the first hop.
  void originate(std::uint32_t payload_bits);

  /// Optional structured trace of relay events (kRelayOriginate /
  /// kRelayForward / kRelayArrive and the reliability kinds kRelayRetry /
  /// kRelayRequeue / kRelayDeadLetter), feeding the routing invariants.
  void set_trace(TraceSink* trace) { trace_ = trace; }
  /// Static-tree hop counts, for the hop-stretch numerator at sinks.
  void set_tree_hops(RouteHopsFn fn) { tree_hops_ = std::move(fn); }
  /// Currently advertised route length at a node (auditor bound).
  void set_advertised_hops(RouteHopsFn fn) { advertised_hops_ = std::move(fn); }
  /// Failover route source: with the ARQ on, a retry whose routing-layer
  /// hop is the one that just failed (or none) asks it for an alternate
  /// neighbor (DV second-best entry / filtered greedy candidate). Unset =
  /// no failover.
  void set_alt_next_hop(AltHopFn fn) { alt_next_hop_ = std::move(fn); }
  /// Seeded backoff jitter stream (Network forks 0xBACC00 + id); must be
  /// set before traffic when the reliability layer is enabled.
  void set_backoff_rng(Rng* rng) { backoff_rng_ = rng; }

  [[nodiscard]] const RelayCounters& counters() const { return counters_; }
  [[nodiscard]] bool is_sink() const { return is_sink_; }
  /// Packets currently in custody at this node (tests / introspection).
  [[nodiscard]] std::size_t custody_depth() const { return custody_.size(); }
  /// How many of those are waiting out a retry backoff.
  [[nodiscard]] std::size_t in_backoff_count() const;

  /// Checkpoint encoding of the relay bookkeeping (counters, the origin
  /// id allocator and — with the ARQ on — the custody queue and dedup
  /// set); part of the Network's "routing" section.
  void visit_state(StateArchive& ar);

 private:
  /// One packet this node holds custody of until the MAC confirms the
  /// hop, the retry budget is spent, or the queue evicts it.
  struct Custody {
    E2eHeader e2e{};
    std::uint32_t bits{0};
    std::uint32_t retries{0};
    NodeId last_dst{kNoNode};  ///< hop of the most recent MAC attempt
    bool in_backoff{false};    ///< a retry timer is pending
    std::uint64_t admission{0};  ///< FIFO age + stale-timer guard

    /// Everything but e2e.e2e_id, which is the custody map's key.
    void visit_state(StateArchive& ar);
  };

  /// Dead-letter reason codes (kRelayDeadLetter's `b` field).
  static constexpr std::int64_t kReasonExhausted = 0;
  static constexpr std::int64_t kReasonOverflow = 1;
  static constexpr std::int64_t kReasonNoRoute = 2;
  static constexpr std::int64_t kReasonDuplicate = 3;

  void on_delivery(const Frame& frame);
  void forward(const Frame& frame);
  /// Takes custody of (or, ARQ off, directly enqueues) one packet toward
  /// `hop`. Applies the queue bound and drop policy.
  void admit(const E2eHeader& e2e, std::uint32_t bits, NodeId hop);
  void on_mac_drop(NodeId dst, const E2eHeader& e2e);
  void on_mac_sent(const E2eHeader& e2e);
  void on_backoff_fire(std::uint64_t e2e_id, std::uint64_t admission);
  /// Abandons custody entry `id` with a reason code (counters + trace).
  void dead_letter(std::uint64_t e2e_id, std::uint32_t retries, std::int64_t reason);
  [[nodiscard]] Duration backoff_for(std::uint32_t retries);
  void trace_relay(TraceEventKind kind, std::uint64_t e2e_id, NodeId origin, std::int64_t a,
                   std::int64_t b, NodeId dst = kNoNode) const;

  Simulator& sim_;
  MacProtocol& mac_;
  NodeId self_;     // lint: ckpt-skip(config, fixed per node)
  bool is_sink_;    // lint: ckpt-skip(config, fixed per node)
  NextHopFn next_hop_;  // lint: ckpt-skip(callback wiring, rebound on construction)
  std::uint8_t hop_limit_;  // lint: ckpt-skip(config, fixed per scenario)
  ReliabilityConfig rel_;   ///< restore cross-checks the enabled bit
  std::uint64_t next_e2e_id_{1};
  RelayCounters counters_;
  TraceSink* trace_{nullptr};
  RouteHopsFn tree_hops_{};  // lint: ckpt-skip(callback wiring, rebound on construction)
  RouteHopsFn advertised_hops_{};  // lint: ckpt-skip(callback wiring)
  AltHopFn alt_next_hop_{};        // lint: ckpt-skip(callback wiring)
  Rng* backoff_rng_{nullptr};

  // --- custody state (ordered: serialized and iterated for eviction) ---
  std::map<std::uint64_t, Custody> custody_;  ///< e2e id -> custody
  /// Every e2e id this node ever took custody of (or absorbed as sink):
  /// re-offers are suppressed, which both prevents duplicate sink
  /// deliveries after an ACK-loss retransmission fork and keeps ARQ
  /// traffic loop-free (a node never re-carries the same packet).
  std::set<std::uint64_t> seen_;
  std::uint64_t next_admission_{1};
};

}  // namespace aquamac
