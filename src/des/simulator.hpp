// Discrete-event simulation kernel.
//
// A minimal, deterministic event-driven simulator: events are (time, action)
// pairs executed in non-decreasing time order with FIFO tie-breaking, so two
// runs with the same seed replay identically.  The campaign round loop, the
// fault injector, the distributed RMS and the grid-scale workload tiers run
// on this kernel.  A single TRMS run (sim::run_trms) does not: its arrivals
// and batch ticks form two sequences known up front, so it walks them in a
// next-event loop in this kernel's (time, seq) order.
//
// Internals (docs/performance.md has the full story): events live in a slab
// pool (common/arena.hpp) and are ordered by a calendar queue
// (des/event_queue.hpp) with O(1) amortized schedule/dequeue, replacing the
// original binary heap + hash-map design.  The observable contract —
// execution order, EventId cancellation semantics, counters, metrics keys —
// is unchanged, and the (time, seq) total order is bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "des/event_queue.hpp"

namespace gridtrust::des {

/// Opaque handle identifying a scheduled event (for cancellation).
using EventId = std::uint64_t;

/// The event-queue simulator.
class Simulator {
 public:
  Simulator() = default;
  /// Publishes any unflushed metrics (see publish_metrics()).
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.  Starts at 0.
  SimTime now() const { return now_; }

  /// Number of events executed so far.
  std::uint64_t executed_events() const { return executed_; }

  /// Number of events currently pending (cancelled events excluded).
  std::size_t pending_events() const { return queue_.size() - cancelled_pending_; }

  /// Number of events scheduled so far (including cancelled ones).
  std::uint64_t scheduled_events() const { return scheduled_; }

  /// Number of events cancelled so far.
  std::uint64_t cancelled_events() const { return cancelled_count_; }

  /// Deepest the event queue has ever been (cancelled entries included).
  std::size_t max_heap_depth() const { return max_queue_depth_; }

  /// Schedules `action` at absolute time `time` (must be >= now()).  `type`
  /// optionally labels the event for per-type execution-time metrics
  /// (`des.event_ns.<type>`); it must be a string literal or otherwise
  /// outlive the simulator.  Unlabelled events are never timed.
  ///
  /// The callable is stored inside the pool-allocated event node (see
  /// InlineAction): lambdas with captures up to InlineAction::kBufSize
  /// bytes schedule without any heap allocation.
  template <class F,
            class = std::enable_if_t<std::is_invocable_v<std::decay_t<F>&>>>
  EventId schedule_at(SimTime time, F action, const char* type = nullptr) {
    EventNode* node = schedule_node(time, type);
    node->action.emplace(std::move(action));
    return node->self;
  }
  EventId schedule_at(SimTime time, std::function<void()> action,
                      const char* type = nullptr) {
    GT_REQUIRE(action != nullptr, "cannot schedule an empty action");
    EventNode* node = schedule_node(time, type);
    node->action.emplace(std::move(action));
    return node->self;
  }

  /// Schedules `action` after `delay` seconds (must be >= 0).
  template <class F,
            class = std::enable_if_t<std::is_invocable_v<std::decay_t<F>&>>>
  EventId schedule_in(SimTime delay, F action, const char* type = nullptr) {
    GT_REQUIRE(delay >= 0.0, "delay must be non-negative");
    return schedule_at(now_ + delay, std::move(action), type);
  }
  EventId schedule_in(SimTime delay, std::function<void()> action,
                      const char* type = nullptr);

  /// Cancels a pending event.  Returns false if the event already ran,
  /// was cancelled, or never existed.
  bool cancel(EventId id);

  /// Executes the next pending event; returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains.  `max_events` guards against runaway
  /// self-rescheduling processes (0 = unlimited).
  void run(std::uint64_t max_events = 0);

  /// Publishes kernel counters (`des.events_*`, `des.heap_depth_max`,
  /// `des.events_pending`) to the installed obs::MetricsRegistry as deltas
  /// since the last publish.  The kernel batches its counts in plain
  /// members so the event loop costs nothing extra; run() and the
  /// destructor publish automatically — call this only to flush
  /// mid-run (e.g. between step() calls).  No-op when metrics are off.
  void publish_metrics();

 private:
  /// Validates the time, allocates and links a node (action still empty),
  /// and updates the schedule counters.
  EventNode* schedule_node(SimTime time, const char* type);

  /// Moves the popped node's payload out, recycles the node, and executes
  /// the action (timing it into its per-type histogram when labelled and
  /// metrics are on).
  void execute(EventNode* node);

  /// Pops the next live (non-cancelled) node with time <= bound, recycling
  /// skipped cancelled nodes; nullptr when none qualify.
  EventNode* pop_live(SimTime bound);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::size_t cancelled_pending_ = 0;
  std::size_t max_queue_depth_ = 0;
  // Counter values already pushed to the metrics registry (publish sends
  // deltas so interleaved publishes never double-count).
  struct Published {
    std::uint64_t executed = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
  } published_;
  ObjectPool<EventNode> pool_;
  CalendarQueue queue_;
  // Per-type histogram cache, keyed by label pointer identity (labels are
  // string literals).  Simulators are single-threaded, so this avoids the
  // global interner's mutex on all but the first hit per label.
  std::vector<std::pair<const char*, const void*>> type_cache_;
};

}  // namespace gridtrust::des
