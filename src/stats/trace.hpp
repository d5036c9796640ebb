#pragma once
// Structured event tracing.
//
// A TraceSink receives one record per PHY-level event (transmit start,
// successful reception, reception failure) and per MAC-level event (state
// transitions, slot boundaries, contention outcomes, extra-communication
// negotiation, neighbor-table updates) network-wide, in simulation order.
// Sinks: in-memory (tests, analysis), CSV (plotting), a FNV hash reducer
// used by the reproducibility tests — two runs of the same
// (scenario, seed) must produce bit-identical traces — and the
// InvariantAuditor (stats/invariant_auditor.hpp).
//
// Parallel harness runs buffer per-run MemoryTraces (one per task) and
// merge them after the join with merge_traces(), ordered by (sim time,
// run index, intra-run order), so the merged stream is bit-identical for
// every jobs value.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "channel/reception.hpp"
#include "phy/frame.hpp"
#include "util/time.hpp"

namespace aquamac {

enum class TraceEventKind : std::uint8_t {
  // --- PHY events (emitted by AcousticModem) ---------------------------
  kTxStart,
  kRxOk,
  kRxLost,
  // --- MAC events (emitted through MacProtocol::trace_mac) -------------
  kMacState,         ///< handshake FSM transition; a = from, b = to
  kSlotBoundary,     ///< slotted MAC acted on a slot boundary; a = slot index
  kContentionWin,    ///< receiver granted CTS; src = winner, value = rp
  kContentionLoss,   ///< sender lost a contention round (§3.1)
  kExtraNegotiated,  ///< EXC granted; window = validity of the grant
  kExtraScheduled,   ///< EXDATA launch planned; window = its air time (Eq. 6)
  kNeighborUpdate,   ///< delay table refresh; src = neighbor, a = delay ns
  // --- fault-injection events (emitted by Network's FaultPlan) ----------
  kFaultNodeDown,    ///< node enters an outage/sleep window
  kFaultNodeUp,      ///< node rejoins; MAC state was reset
  kFaultClockStep,   ///< clock jitter step; a = step ns, b = new offset ns
  kFaultBurstBegin,  ///< node's Gilbert-Elliott chain entered the bad state
  kFaultBurstEnd,    ///< node's Gilbert-Elliott chain returned to good
  kFaultStormBegin,  ///< network-wide noise storm begins (node = kNoNode)
  kFaultStormEnd,    ///< network-wide noise storm ends (node = kNoNode)
  // --- hardening / recovery events (emitted by MacProtocol) -------------
  kNeighborEvicted,  ///< stale entry aged out; src = neighbor, a = max age ns
  kNeighborDead,     ///< K consecutive silent handshakes; src = neighbor, a = K
  kNeighborProbe,    ///< reinstatement probe of a dead neighbor; src = neighbor
  // --- routing events (DvRouter / RelayAgent, docs/routing.md) ----------
  kRouteUpdate,      ///< best route changed; src = next hop, dst = sink,
                     ///< a = cost ns, b = hops (b = -1: route lost)
  kRelayOriginate,   ///< e2e packet stamped; seq = e2e id, b = advertised hops
  kRelayForward,     ///< e2e packet re-enqueued; seq = e2e id, src = origin,
                     ///< a = hop count after this hop, b = advertised hops here
  kRelayArrive,      ///< e2e packet absorbed by a sink; seq = e2e id,
                     ///< src = origin, a = final hop count
  // --- hop-by-hop reliability events (RelayAgent ARQ, docs/reliability.md)
  kRelayRetry,       ///< custody backoff armed after a MAC drop; seq = e2e
                     ///< id, dst = failed hop, a = retry count, b = wait ns
  kRelayRequeue,     ///< custody retransmission re-enqueued; seq = e2e id,
                     ///< dst = chosen hop, a = retry count, b = 1 if failover
  kRelayDeadLetter,  ///< custody abandoned; seq = e2e id, a = retries spent,
                     ///< b = reason (0 exhausted, 1 overflow, 2 no-route,
                     ///< 3 duplicate custody)
};

[[nodiscard]] std::string_view to_string(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind{TraceEventKind::kTxStart};
  Time at{};
  NodeId node{kNoNode};     ///< acting node (transmitter or receiver)
  FrameType frame_type{FrameType::kHello};
  NodeId src{kNoNode};
  NodeId dst{kNoNode};
  std::uint64_t seq{0};
  std::uint32_t bits{0};
  RxOutcome outcome{RxOutcome::kSuccess};  ///< meaningful for kRxLost

  /// Air window (PHY events: [tx begin, tx end) or the arrival window at
  /// this receiver) or validity/plan window (kExtraNegotiated /
  /// kExtraScheduled). Zero for events without a window.
  Time window_begin{};
  Time window_end{};
  /// Kind-specific integers (see TraceEventKind comments).
  std::int64_t a{0};
  std::int64_t b{0};
  /// Kind-specific real value (kContentionWin: the winning rp).
  double value{0.0};

  [[nodiscard]] std::string to_csv_row() const;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
};

/// Buffers every event; offers simple queries for tests and analysis.
class MemoryTrace final : public TraceSink {
 public:
  void record(const TraceEvent& event) override { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  [[nodiscard]] std::size_t count(TraceEventKind kind) const;
  [[nodiscard]] std::size_t count_frames(FrameType type) const;
  /// Events are recorded in nondecreasing simulation time.
  [[nodiscard]] bool is_time_ordered() const;

 private:
  std::vector<TraceEvent> events_;
};

/// Streams CSV rows (with header) to any ostream.
class CsvTrace final : public TraceSink {
 public:
  explicit CsvTrace(std::ostream& os);
  void record(const TraceEvent& event) override;

 private:
  std::ostream& os_;
};

/// FNV-1a over the canonical encoding of each event: a run fingerprint.
class HashTrace final : public TraceSink {
 public:
  void record(const TraceEvent& event) override;
  [[nodiscard]] std::uint64_t digest() const { return hash_; }
  /// Checkpoint restore: resume accumulating from a saved digest.
  void set_digest(std::uint64_t hash) { hash_ = hash; }

 private:
  void mix(std::uint64_t value);
  std::uint64_t hash_{1469598103934665603ULL};
};

/// Pass-through sink that forwards every event to an inner sink while
/// accumulating a count and running HashTrace digest — the run's trace
/// position, captured by checkpoints (docs/checkpoint.md). In sharded
/// runs it must sit *inside* the DeferredTraceSink so it sees events in
/// barrier-ordered (serial-identical) order.
class TallyTrace final : public TraceSink {
 public:
  explicit TallyTrace(TraceSink& inner) : inner_{&inner} {}

  void record(const TraceEvent& event) override {
    hash_.record(event);
    ++count_;
    inner_->record(event);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t digest() const { return hash_.digest(); }

  /// Checkpoint restore: overwrite the accumulated position.
  void set_state(std::uint64_t count, std::uint64_t digest) {
    count_ = count;
    hash_.set_digest(digest);
  }

 private:
  TraceSink* inner_;
  HashTrace hash_;
  std::uint64_t count_{0};
};

/// Fans one event stream out to several sinks.
class TeeTrace final : public TraceSink {
 public:
  explicit TeeTrace(std::vector<TraceSink*> sinks) : sinks_{std::move(sinks)} {}
  void record(const TraceEvent& event) override {
    for (TraceSink* sink : sinks_) sink->record(event);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Replays per-run buffered traces into `out`, ordered by
/// (sim time, run index, intra-run order). The order is a pure function
/// of the buffered events, so serial and parallel executions of the same
/// run set produce bit-identical merged streams. Null buffers are
/// skipped.
void merge_traces(const std::vector<std::unique_ptr<MemoryTrace>>& runs, TraceSink& out);

}  // namespace aquamac
