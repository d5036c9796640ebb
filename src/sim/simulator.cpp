#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace aquamac {

/// Per-worker execution state. Exactly one context is active per thread
/// (installed in a thread-local while the thread executes events), so all
/// fields are single-writer; the coordinator reads them only at barriers,
/// after wait_idle() has synchronized with every worker.
struct Simulator::ExecContext {
  std::uint32_t queue_index{0};  ///< 0 = coordinator, k = shard k's queue
  Time now{Time::zero()};        ///< shard-local clock inside a window
  Time window_end{Time::zero()};
  std::uint32_t current_lane{0};
  EventKey exec_key{};
  std::uint32_t defer_ordinal{0};
  std::uint64_t fired{0};

  struct Outbound {
    std::uint32_t queue;
    EventKey key;
    std::uint32_t lane;
    std::uint64_t id;
    EventQueue::Callback fn;
  };
  std::vector<Outbound> outbox;

  struct Deferred {
    EventKey key;
    std::uint32_t ordinal;
    std::function<void()> fn;
  };
  std::vector<Deferred> defers;
};

namespace {
/// The execution context of the calling thread, if it is currently
/// running events for some Simulator. Thread-local rather than a member
/// so nested parallelism (harness jobs x shard workers) cannot confuse
/// contexts: each thread runs events of at most one simulator at a time.
thread_local Simulator::ExecContext* t_exec_context = nullptr;
}  // namespace

Simulator::Simulator(Logger logger) : logger_{std::move(logger)} {
  queues_.resize(1);
  lane_seq_.resize(1, 0);
  queue_of_lane_.resize(1, 0);
}

Simulator::~Simulator() = default;

Time Simulator::now() const {
  const ExecContext* ctx = t_exec_context;
  return ctx != nullptr ? ctx->now : now_;
}

void Simulator::set_lane_count(std::uint32_t lanes) {
  if (lanes > kMaxLanes) throw std::invalid_argument("Simulator: too many lanes");
  if (lane_seq_.size() < lanes) lane_seq_.resize(lanes, 0);
}

std::uint32_t Simulator::current_lane() const {
  const ExecContext* ctx = t_exec_context;
  return ctx != nullptr ? ctx->current_lane : schedule_lane_;
}

std::size_t Simulator::context_index() const {
  const ExecContext* ctx = t_exec_context;
  return ctx != nullptr ? ctx->queue_index : 0;
}

bool Simulator::in_parallel_region() const {
  const ExecContext* ctx = t_exec_context;
  return ctx != nullptr && ctx->queue_index > 0;
}

EventHandle Simulator::at_lane(std::uint32_t lane, Time when, EventQueue::Callback fn) {
  ExecContext* ctx = t_exec_context;
  const Time local_now = ctx != nullptr ? ctx->now : now_;
  if (when < local_now) {
    throw std::logic_error("Simulator::at: scheduling into the past (" + when.to_string() +
                           " < " + local_now.to_string() + ")");
  }
  const std::uint32_t origin = ctx != nullptr ? ctx->current_lane : schedule_lane_;
  if (origin >= lane_seq_.size()) {
    // Serial-only convenience growth; sharded mode pre-sizes via
    // set_lane_count, so workers never reallocate the shared table.
    assert(!sharded_);
    lane_seq_.resize(static_cast<std::size_t>(origin) + 1, 0);
  }
  const EventKey key{when, origin, ++lane_seq_[origin]};
  return push_event(lane, key, std::move(fn));
}

EventHandle Simulator::push_event(std::uint32_t lane, EventKey key, EventQueue::Callback fn) {
  std::uint32_t queue = 0;
  if (sharded_) {
    if (lane >= queue_of_lane_.size()) {
      throw std::logic_error("Simulator: lane beyond the sharded lane space");
    }
    queue = queue_of_lane_[lane];
  }
  // Handle id: (origin seq, origin, queue) — unique without any shared
  // counter, and the low bits route cancel() to the owning queue.
  const std::uint64_t id =
      (key.origin_seq << (kQueueBits + kLaneBits)) |
      (static_cast<std::uint64_t>(key.origin) << kQueueBits) | queue;

  ExecContext* ctx = t_exec_context;
  if (ctx != nullptr && queue != ctx->queue_index) {
    if (ctx->queue_index != 0 && key.when < ctx->window_end) {
      // A cross-shard event inside the conservative window would execute
      // out of order (the target may already have advanced past it):
      // the lookahead bound was violated. Fail loudly — this would
      // otherwise silently break the serial/sharded bit-identity wall.
      throw std::logic_error("Simulator: cross-shard event violates conservative lookahead");
    }
    if (queue == 0 && ctx->queue_index != 0) {
      throw std::logic_error("Simulator: only lane-0 context may schedule lane-0 events");
    }
    ctx->outbox.push_back(ExecContext::Outbound{queue, key, lane, id, std::move(fn)});
    return EventHandle{id};
  }
  return queues_[queue].push_keyed(key, lane, id, std::move(fn));
}

bool Simulator::cancel(EventHandle handle) {
  if (handle.is_null()) return false;
  const auto queue = static_cast<std::uint32_t>(handle.id() & (kMaxQueues - 1));
  if (queue >= queues_.size()) return false;
  assert(!in_parallel_region() || queue == t_exec_context->queue_index);
  return queues_[queue].cancel(handle);
}

void Simulator::defer_ordered(std::function<void()> fn) {
  ExecContext* ctx = t_exec_context;
  if (ctx == nullptr || ctx->queue_index == 0) {
    throw std::logic_error("Simulator::defer_ordered outside a parallel region");
  }
  ctx->defers.push_back(ExecContext::Deferred{ctx->exec_key, ctx->defer_ordinal++, std::move(fn)});
}

std::uint64_t Simulator::run_until(Time until) {
  return sharded_ ? run_until_sharded(until) : run_until_serial(until);
}

std::uint64_t Simulator::run_until_serial(Time until) {
  stop_requested_ = false;
  EventQueue& queue = queues_[0];
  std::uint64_t fired = 0;
  const std::uint32_t saved_lane = schedule_lane_;
  while (!queue.empty() && !stop_requested_) {
    if (queue.next_time() > until) break;
    auto popped = queue.pop();
    assert(popped.when >= now_);
    now_ = popped.when;
    schedule_lane_ = popped.lane;
    popped.fn();
    ++fired;
    ++events_executed_;
  }
  schedule_lane_ = saved_lane;
  if (now_ < until && until != Time::max()) now_ = until;
  return fired;
}

void Simulator::enable_sharding(ShardingOptions options) {
  if (sharded_) throw std::logic_error("Simulator: sharding already enabled");
  if (options.shards == 0) throw std::invalid_argument("Simulator: shards must be >= 1");
  if (options.shards + 1 > kMaxQueues) {
    throw std::invalid_argument("Simulator: too many shards");
  }
  const std::size_t lanes = options.shard_of_node.size() + 1;
  if (lanes > kMaxLanes) throw std::invalid_argument("Simulator: too many lanes");

  queue_of_lane_.assign(lanes, 0);
  for (std::size_t i = 0; i < options.shard_of_node.size(); ++i) {
    const std::uint32_t shard = options.shard_of_node[i];
    if (shard >= options.shards) {
      throw std::invalid_argument("Simulator: shard_of_node entry out of range");
    }
    queue_of_lane_[i + 1] = shard + 1;
  }
  set_lane_count(static_cast<std::uint32_t>(lanes));

  queues_.resize(options.shards + 1);
  contexts_.clear();
  contexts_.reserve(queues_.size());
  for (std::size_t k = 0; k < queues_.size(); ++k) {
    auto ctx = std::make_unique<ExecContext>();
    ctx->queue_index = static_cast<std::uint32_t>(k);
    contexts_.push_back(std::move(ctx));
  }
  unsigned threads = options.threads != 0 ? options.threads : default_jobs();
  threads = std::min(threads, options.shards);
  pool_ = std::make_unique<ThreadPool>(std::max(1u, threads));
  lookahead_fn_ = std::move(options.lookahead);
  lookahead_valid_ = false;
  sharded_ = true;

  // Scatter any pre-sharding backlog to the owning shard queues. Handle
  // ids are re-minted for the new queue (ordering keys are untouched), so
  // handles obtained before enable_sharding can no longer cancel.
  for (auto& event : queues_[0].extract_all()) {
    const std::uint32_t queue = queue_of_lane_.at(event.lane);
    const std::uint64_t id = (event.id & ~static_cast<std::uint64_t>(kMaxQueues - 1)) | queue;
    queues_[queue].push_keyed(event.key, event.lane, id, std::move(event.fn));
  }
}

std::uint64_t Simulator::run_until_sharded(Time until) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  const Time inclusive_cap =
      until == Time::max() ? Time::max() : until + Duration::nanoseconds(1);
  while (!stop_requested_) {
    // Earliest pending event across every queue.
    Time t_next = Time::max();
    bool any = false;
    for (EventQueue& queue : queues_) {
      if (queue.empty()) continue;
      any = true;
      t_next = std::min(t_next, queue.next_time());
    }
    if (!any || t_next > until) break;
    assert(t_next >= now_);
    now_ = t_next;

    // Global (lane-0) events at this instant run first on the
    // coordinator: origin 0 sorts before every node-lane key at equal
    // time, and they may touch cross-shard state (mobility), so every
    // shard must be quiescent — which it is, between windows.
    if (!queues_[0].empty() && queues_[0].next_time() == t_next) {
      fired += run_global_batch(t_next);
      drain_outboxes();
      // Global events are the only place node positions change; the
      // lookahead must be re-derived before the next window.
      lookahead_valid_ = false;
      continue;
    }

    if (!lookahead_valid_) {
      Duration ahead = lookahead_fn_ ? lookahead_fn_() : Duration::nanoseconds(1);
      lookahead_ = std::max(Duration::nanoseconds(1), ahead);
      lookahead_valid_ = true;
    }
    Time window_end = now_ > Time::max() - lookahead_ ? Time::max() : now_ + lookahead_;
    if (!queues_[0].empty()) window_end = std::min(window_end, queues_[0].next_time());
    window_end = std::min(window_end, inclusive_cap);
    fired += run_window(window_end);
    drain_outboxes();
    flush_defers();
    if (pending_exception_ != nullptr) {
      std::exception_ptr e = std::exchange(pending_exception_, nullptr);
      std::rethrow_exception(e);
    }
  }
  if (now_ < until && until != Time::max()) now_ = until;
  return fired;
}

std::uint64_t Simulator::run_global_batch(Time t) {
  ExecContext& ctx = *contexts_[0];
  ctx.now = t;
  ctx.window_end = t;
  t_exec_context = &ctx;
  std::uint64_t fired = 0;
  EventQueue& queue = queues_[0];
  while (!queue.empty() && !stop_requested_ && queue.next_time() == t) {
    auto popped = queue.pop();
    ctx.current_lane = popped.lane;
    ctx.exec_key = popped.key;
    ctx.defer_ordinal = 0;
    popped.fn();
    ++fired;
  }
  t_exec_context = nullptr;
  events_executed_ += fired;
  return fired;
}

std::uint64_t Simulator::run_window(Time window_end) {
  const auto shards = static_cast<std::uint32_t>(queues_.size() - 1);
  unsigned dispatched = 0;
  for (std::uint32_t s = 1; s <= shards; ++s) {
    EventQueue& queue = queues_[s];
    if (queue.empty() || queue.next_time() >= window_end) continue;
    ExecContext* ctx = contexts_[s].get();
    ctx->window_end = window_end;
    pool_->submit([this, ctx, window_end] { run_shard_window(*ctx, window_end); });
    ++dispatched;
  }
  if (dispatched > 0) pool_->wait_idle();
  ++windows_executed_;
  std::uint64_t fired = 0;
  for (std::uint32_t s = 1; s <= shards; ++s) {
    fired += contexts_[s]->fired;
    contexts_[s]->fired = 0;
  }
  events_executed_ += fired;
  return fired;
}

void Simulator::run_shard_window(ExecContext& ctx, Time window_end) {
  t_exec_context = &ctx;
  EventQueue& queue = queues_[ctx.queue_index];
  try {
    while (!queue.empty()) {
      if (queue.next_time() >= window_end) break;
      auto popped = queue.pop();
      ctx.now = popped.when;
      ctx.current_lane = popped.lane;
      ctx.exec_key = popped.key;
      ctx.defer_ordinal = 0;
      popped.fn();
      ++ctx.fired;
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock{exception_mutex_};
    if (pending_exception_ == nullptr) pending_exception_ = std::current_exception();
  }
  t_exec_context = nullptr;
}

void Simulator::drain_outboxes() {
  for (auto& ctx : contexts_) {
    for (auto& out : ctx->outbox) {
      assert(out.key.when >= now_);
      queues_[out.queue].push_keyed(out.key, out.lane, out.id, std::move(out.fn));
    }
    ctx->outbox.clear();
  }
}

void Simulator::flush_defers() {
  std::vector<ExecContext::Deferred> batch;
  std::size_t total = 0;
  for (const auto& ctx : contexts_) total += ctx->defers.size();
  if (total == 0) return;
  batch.reserve(total);
  for (auto& ctx : contexts_) {
    for (auto& deferred : ctx->defers) batch.push_back(std::move(deferred));
    ctx->defers.clear();
  }
  // (event key, ordinal) pairs are unique — each event's deferred actions
  // are numbered by one context — so this order is total and equals the
  // serial execution's action order.
  std::sort(batch.begin(), batch.end(),
            [](const ExecContext::Deferred& a, const ExecContext::Deferred& b) {
              if (!(a.key == b.key)) return a.key < b.key;
              return a.ordinal < b.ordinal;
            });
  for (ExecContext::Deferred& deferred : batch) deferred.fn();
}

namespace {

/// All live events across the queues, sorted by their intrinsic ordering
/// key — the shard-count-invariant view of the pending event set.
std::vector<EventQueue::LiveEvent> sorted_live_events(const std::vector<EventQueue>& queues) {
  std::vector<EventQueue::LiveEvent> live;
  for (const EventQueue& queue : queues) {
    const std::vector<EventQueue::LiveEvent> events = queue.live_events();
    live.insert(live.end(), events.begin(), events.end());
  }
  std::sort(live.begin(), live.end(),
            [](const EventQueue::LiveEvent& a, const EventQueue::LiveEvent& b) {
              return a.key < b.key;
            });
  return live;
}

}  // namespace

void Simulator::visit_state(StateArchive& ar) const {
  const auto diverges = [](const std::string& what) {
    return "engine state diverges from checkpoint: " + what;
  };
  const auto stored_vs_replay = [&diverges](const std::string& what, std::uint64_t replay) {
    return [&diverges, what, replay](std::uint64_t stored) {
      return diverges(what + " (checkpoint " + std::to_string(stored) + ", replay " +
                      std::to_string(replay) + ")");
    };
  };
  ar.expect(now_, diverges("clock"));
  ar.expect(events_executed_, stored_vs_replay("executed-event count", events_executed_));
  ar.expect(lane_seq_.size(), diverges("lane count"));
  for (std::size_t lane = 0; lane < lane_seq_.size(); ++lane) {
    ar.expect(lane_seq_[lane], [&diverges, lane](std::uint64_t) {
      return diverges("sequence counter of lane " + std::to_string(lane));
    });
  }
  const std::vector<EventQueue::LiveEvent> live = sorted_live_events(queues_);
  ar.expect(live.size(), stored_vs_replay("pending-event count", live.size()));
  for (std::size_t k = 0; k < live.size(); ++k) {
    const auto mismatch = [&diverges, k](const auto&) {
      return diverges("pending event #" + std::to_string(k));
    };
    ar.expect(live[k].key.when, mismatch);
    ar.expect(live[k].key.origin, mismatch);
    ar.expect(live[k].key.origin_seq, mismatch);
    ar.expect(live[k].lane, mismatch);
  }
}

}  // namespace aquamac
