#pragma once
// Per-layer instrumentation for the traced pass of bench_suite, attached
// from outside through public seams only:
//
//   - SpanRecorder implements the PhaseHook seam (channel.deliver,
//     mac.rx) and records explicit scopes bench_suite opens around its own
//     calls (net.build, harness.*). Spans nest on a stack; each carries a
//     parent link, and a span's self time is its duration minus the
//     durations of its direct children.
//   - LedgerSink wraps the workload's own TraceSink: every record() is a
//     stats.record span, counted per TraceEventKind.
//
// Serial runs only: PhaseHook begin/end pairs from concurrent shards
// would interleave on the stack (util/phase_hook.hpp). Sharded runs get a
// LedgerSink without a recorder (counts only).
//
// aquamac-lint: allow-file(wall-clock) -- spans time host execution of the
// benchmark's runs; no value read here reaches simulation state.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "stats/trace.hpp"
#include "util/phase_hook.hpp"

namespace aquamac::suite {

enum class Layer : std::uint8_t {
  kNetBuild,
  kChannelDeliver,
  kMacRx,
  kStatsRecord,
  kCkptEncode,
  kContainerRw,
  kVerifyRestore,
};

inline constexpr std::array<std::string_view, 7> kLayerNames{
    "net.build",           "channel.deliver",      "mac.rx",
    "stats.record",        "harness.ckpt_encode",  "harness.container_rw",
    "harness.verify_restore"};

inline constexpr std::size_t kTraceKinds =
    static_cast<std::size_t>(TraceEventKind::kRelayDeadLetter) + 1;

class SpanRecorder final : public PhaseHook {
 public:
  using Clock = std::chrono::steady_clock;

  /// Raw spans kept in memory for the spans file; aggregates cover all.
  static constexpr std::size_t kRawLimit = 200'000;

  struct Aggregate {
    std::uint64_t count{0};
    Clock::duration total{};
    Clock::duration self{};
  };

  /// One finished span; times are offsets from the recorder's origin.
  struct RawSpan {
    std::uint64_t id{0};
    std::uint64_t parent{0};  ///< id of the enclosing span; 0 = root
    Layer layer{Layer::kNetBuild};
    Clock::duration begin{};
    Clock::duration end{};
  };

  void open(Layer layer) { stack_.push_back({++last_id_, layer, Clock::now(), {}}); }

  void close() {
    const Clock::time_point now = Clock::now();
    const Open span = stack_.back();
    stack_.pop_back();
    const Clock::duration duration = now - span.start;
    Aggregate& agg = aggregates_[static_cast<std::size_t>(span.layer)];
    ++agg.count;
    agg.total += duration;
    agg.self += duration - span.children;
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (!stack_.empty()) stack_.back().children += duration;
    if (raw_.size() < kRawLimit) {
      raw_.push_back({span.id, parent, span.layer, span.start - origin_, now - origin_});
    }
  }

  void begin(SimPhase phase) override {
    open(phase == SimPhase::kChannelDelivery ? Layer::kChannelDeliver : Layer::kMacRx);
  }
  void end(SimPhase /*phase*/) override { close(); }

  [[nodiscard]] const Aggregate& aggregate(Layer layer) const {
    return aggregates_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const std::vector<RawSpan>& raw() const { return raw_; }
  [[nodiscard]] std::uint64_t spans() const { return last_id_; }

  /// Sum of every layer's self time: the attributed part of the wall.
  [[nodiscard]] Clock::duration total_self() const {
    Clock::duration sum{};
    for (const Aggregate& agg : aggregates_) sum += agg.self;
    return sum;
  }

 private:
  struct Open {
    std::uint64_t id;
    Layer layer;
    Clock::time_point start;
    Clock::duration children;
  };

  std::vector<Open> stack_;
  std::array<Aggregate, kLayerNames.size()> aggregates_{};
  std::vector<RawSpan> raw_;
  std::uint64_t last_id_{0};
  Clock::time_point origin_{Clock::now()};
};

/// RAII span; a null recorder makes the scope free.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, Layer layer) : recorder_{recorder} {
    if (recorder_ != nullptr) recorder_->open(layer);
  }
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// The stats.record layer: forwards every event to the workload's own
/// sink inside a span (when a recorder is given) and counts events per
/// kind. Sink arrivals are also kept by e2e id, because each sink dedups
/// only its own arrivals: a failover fork that reaches a second sink is
/// counted twice by RunStats.e2e_arrived_at_sink.
class LedgerSink final : public TraceSink {
 public:
  LedgerSink(TraceSink& inner, SpanRecorder* recorder) : inner_{&inner}, recorder_{recorder} {}

  void record(const TraceEvent& event) override {
    const SpanScope span{recorder_, Layer::kStatsRecord};
    ++counts_[static_cast<std::size_t>(event.kind)];
    if (event.kind == TraceEventKind::kRelayArrive) arrived_ids_.insert(event.seq);
    inner_->record(event);
  }

  [[nodiscard]] std::uint64_t count(TraceEventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t distinct_arrivals() const { return arrived_ids_.size(); }

 private:
  TraceSink* inner_;
  SpanRecorder* recorder_;
  std::array<std::uint64_t, kTraceKinds> counts_{};
  std::set<std::uint64_t> arrived_ids_;
};

}  // namespace aquamac::suite
