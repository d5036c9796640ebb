#pragma once
// The discrete-event simulator: a clock plus the pending-event queue(s).
//
// One Simulator instance exists per run; every component (channel, modem,
// MAC, traffic source) holds a reference and schedules work through it.
// There is deliberately no global/singleton instance — runs are isolated
// and reproducible from (scenario, seed) alone.
//
// Lanes. Every event belongs to a *lane*: lane 0 is the global lane
// (setup, mobility ticks, other whole-network events) and node i maps to
// lane i + 1. An event's ordering key is (time, origin lane, per-origin
// sequence) — see EventKey — where the origin is the lane whose activity
// scheduled it. Because a lane's own events execute in a deterministic
// order and perform the same pushes in the same order regardless of how
// lanes are spread over threads, the key order is identical for serial
// and sharded execution; it is the foundation of the bit-identity
// contract between the two engines. Code that never calls set_lane_count
// or LaneGuard runs entirely in lane 0, which reproduces the historical
// (time, push order) behaviour exactly.
//
// Sharded execution (enable_sharding) partitions node lanes into K shards,
// each owning an EventQueue, and advances the shards concurrently inside
// conservative lookahead windows [T, T + L): L is a lower bound on the
// acoustic propagation delay between any two nodes in different shards,
// so no cross-shard influence scheduled inside a window can land inside
// it. Cross-shard events travel through per-context outboxes applied at
// the window barrier; lane-0 events run on the coordinator between
// windows, before any equal-time node-lane event (origin 0 sorts first).
// See docs/parallel-des.md for the full protocol and determinism rules.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/logging.hpp"
#include "util/time.hpp"

namespace aquamac {

class StateArchive;
class ThreadPool;

/// Configuration of the sharded conservative-PDES engine.
struct ShardingOptions {
  /// Node index -> shard index in [0, shards); size = node count.
  std::vector<std::uint32_t> shard_of_node;
  /// Number of shards K (>= 1; 1 exercises the windowed engine serially).
  unsigned shards{1};
  /// Conservative lookahead: a lower bound on the delay of any influence
  /// between nodes of different shards *under current positions*. Called
  /// by the coordinator between windows (re-queried after every global
  /// event batch, which is the only place positions change). Values are
  /// clamped below at 1 ns so windows always make progress.
  std::function<Duration()> lookahead;
  /// Worker threads; 0 = min(shards, default_jobs()).
  unsigned threads{0};
};

class Simulator {
 public:
  explicit Simulator(Logger logger = Logger::off());
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Monotonically non-decreasing. On a shard
  /// worker thread this is the shard-local clock (within the current
  /// conservative window); elsewhere the global clock.
  [[nodiscard]] Time now() const;

  /// Declares the lane id space: lanes [0, lanes). Must cover every lane
  /// later passed to at_lane/LaneGuard when sharding is enabled (serial
  /// execution grows the table on demand). Lane 0 always exists.
  void set_lane_count(std::uint32_t lanes);

  /// The lane new events are attributed to and scheduled onto: the lane
  /// of the event currently executing, or the LaneGuard-selected lane
  /// outside event context (default 0).
  [[nodiscard]] std::uint32_t current_lane() const;

  /// Scopes scheduling outside event context to a lane, so setup code can
  /// attribute per-node events (hello rounds, traffic starts, fault
  /// timelines) to the node's lane. Restores the previous lane on exit.
  class LaneGuard {
   public:
    LaneGuard(Simulator& sim, std::uint32_t lane) : sim_{sim}, saved_{sim.schedule_lane_} {
      sim_.schedule_lane_ = lane;
    }
    ~LaneGuard() { sim_.schedule_lane_ = saved_; }
    LaneGuard(const LaneGuard&) = delete;
    LaneGuard& operator=(const LaneGuard&) = delete;

   private:
    Simulator& sim_;
    std::uint32_t saved_;
  };

  /// Schedules `fn` at absolute time `when` on the current lane; `when`
  /// must not precede now().
  EventHandle at(Time when, EventQueue::Callback fn) {
    return at_lane(current_lane(), when, std::move(fn));
  }

  /// Schedules `fn` on an explicit target lane (the channel uses this to
  /// hand arrivals to the receiver's lane). The ordering key still
  /// carries the *current* lane as origin. Under sharding, only lane-0
  /// context may target lane 0, and a cross-shard target must lie at or
  /// beyond the current window's end (the conservative-horizon guarantee;
  /// violating it throws, as it would silently break determinism).
  EventHandle at_lane(std::uint32_t lane, Time when, EventQueue::Callback fn);

  /// Schedules `fn` after `delay` (>= 0) from now.
  EventHandle in(Duration delay, EventQueue::Callback fn) {
    return at(now() + delay, std::move(fn));
  }

  /// Cancels a pending event; false if it already fired or was cancelled.
  /// Under sharding a worker may only cancel events of its own shard
  /// (MAC timers are node-local, so this is the natural discipline).
  bool cancel(EventHandle handle);

  /// Runs events until the queue drains or `until` is passed; the clock is
  /// left at min(until, last event time). Returns number of events fired.
  std::uint64_t run_until(Time until);

  /// Runs until the queue drains completely.
  std::uint64_t run() { return run_until(Time::max()); }

  /// Requests that the run loop stop after the current event (serial) or
  /// the current window (sharded; honored at the next barrier).
  void stop() { stop_requested_ = true; }

  // --- sharded engine --------------------------------------------------

  /// Switches to sharded windowed execution. Call once, before scheduling
  /// (EventHandles obtained earlier keep firing but can no longer be
  /// cancelled reliably) and after set_lane_count. shard_of_node must
  /// cover every node lane declared.
  void enable_sharding(ShardingOptions options);

  [[nodiscard]] bool sharding_enabled() const { return sharded_; }
  [[nodiscard]] unsigned shard_count() const {
    return sharded_ ? static_cast<unsigned>(queues_.size() - 1) : 1;
  }

  /// Number of execution contexts (1 + shard count); sizes per-context
  /// workspaces (e.g. the channel's candidate buffers).
  [[nodiscard]] std::size_t context_count() const { return queues_.size(); }

  /// Index of the calling thread's execution context: 0 for the
  /// coordinator / serial / harness threads, 1..K on shard workers.
  [[nodiscard]] std::size_t context_index() const;

  /// True on a shard worker thread inside a conservative window — i.e.
  /// when other shards may be executing concurrently and any side effect
  /// on shared state must go through defer_ordered().
  [[nodiscard]] bool in_parallel_region() const;

  /// Defers `fn` to the window barrier, tagged with the executing event's
  /// key and a per-event ordinal. The coordinator replays all deferred
  /// actions of a window sorted by (event key, ordinal) — exactly the
  /// order a serial execution would have performed them — so sinks fed
  /// through this path (traces, audits) see the serial stream verbatim.
  /// Only valid inside a parallel region.
  void defer_ordered(std::function<void()> fn);

  [[nodiscard]] bool has_pending() const {
    for (const EventQueue& q : queues_) {
      if (!q.empty()) return true;
    }
    return false;
  }
  [[nodiscard]] std::size_t pending_count() const {
    std::size_t n = 0;
    for (const EventQueue& q : queues_) n += q.size();
    return n;
  }
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Conservative windows executed so far (sharded engine diagnostics).
  [[nodiscard]] std::uint64_t windows_executed() const { return windows_executed_; }

  [[nodiscard]] const Logger& logger() const { return logger_; }

  // --- checkpointing ---------------------------------------------------

  /// The engine component of a checkpoint: clock, executed event count,
  /// per-lane sequence counters, and the intrinsic (time, origin, seq,
  /// lane) keys of every live pending event, sorted by key. The encoding
  /// is shard-count-invariant: handle ids (which embed the owning queue
  /// index) and windows_executed_ are deliberately excluded, so a K=4 run
  /// snapshots byte-identically to the serial run it mirrors.
  ///
  /// Loading only verifies. Restore works by replaying the deterministic
  /// prefix to the checkpoint time (callbacks are closures and cannot be
  /// serialized), so after replay the live event set must already match
  /// the snapshot exactly; any mismatch throws CheckpointError naming the
  /// component.
  void visit_state(StateArchive& ar) const;

  /// Queue-index bits in a handle id; bounds shards at kMaxQueues - 1.
  static constexpr unsigned kQueueBits = 8;
  static constexpr std::size_t kMaxQueues = 1u << kQueueBits;
  /// Lane bits in a handle id; bounds lanes (nodes + 1) at 65'535.
  static constexpr unsigned kLaneBits = 16;
  static constexpr std::uint32_t kMaxLanes = (1u << kLaneBits) - 1;

  /// Per-worker execution state; defined in simulator.cpp (opaque here,
  /// public only so the implementation's thread-local can name it).
  struct ExecContext;

 private:

  EventHandle push_event(std::uint32_t lane, EventKey key, EventQueue::Callback fn);
  std::uint64_t run_until_serial(Time until);
  std::uint64_t run_until_sharded(Time until);
  std::uint64_t run_global_batch(Time t);
  std::uint64_t run_window(Time window_end);
  void run_shard_window(ExecContext& ctx, Time window_end);
  void drain_outboxes();
  void flush_defers();

  std::vector<EventQueue> queues_;  ///< [0] = global/serial; [1..K] = shards
  Time now_{Time::zero()};
  std::atomic<bool> stop_requested_{false};  // lint: ckpt-skip(run control, not state)
  std::uint64_t events_executed_{0};
  std::uint64_t windows_executed_{0};  // lint: ckpt-skip(shard-count dependent diagnostics)
  Logger logger_;  // lint: ckpt-skip(logging wiring, no simulation state)

  /// Per-lane push counters: lane_seq_[l] counts pushes whose origin is l.
  /// A lane's counter is only ever touched by the context executing that
  /// lane, so concurrent shards touch disjoint slots.
  std::vector<std::uint64_t> lane_seq_;
  std::uint32_t schedule_lane_{0};  // lint: ckpt-skip(reset between events; no state at a boundary)

  // Sharded engine state.
  bool sharded_{false};  // lint: ckpt-skip(engine layout; the capture is shard-invariant)
  std::vector<std::uint32_t> queue_of_lane_;  // lint: ckpt-skip(engine layout: lane -> queue)
  std::vector<std::unique_ptr<ExecContext>> contexts_;  // lint: ckpt-skip(engine layout)
  std::unique_ptr<ThreadPool> pool_;  // lint: ckpt-skip(engine workers)
  std::function<Duration()> lookahead_fn_;  // lint: ckpt-skip(callback wiring)
  Duration lookahead_{Duration::nanoseconds(1)};  // lint: ckpt-skip(recomputed per window)
  bool lookahead_valid_{false};  // lint: ckpt-skip(recomputed per window)
  std::exception_ptr pending_exception_;  // lint: ckpt-skip(error transport)
  std::mutex exception_mutex_;  // lint: ckpt-skip(error transport)
};

}  // namespace aquamac
