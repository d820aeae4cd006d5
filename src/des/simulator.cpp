#include "des/simulator.hpp"

#include <limits>
#include <map>
#include <string>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::des {

namespace {

// Kernel-level metrics.  Counts are batched in plain Simulator members and
// flushed by publish_metrics(), so the per-event cost of an *enabled*
// registry is still zero on the schedule/execute path; only labelled events
// pay for timing.
const obs::Counter kExecuted("des.events_executed");
const obs::Counter kScheduled("des.events_scheduled");
const obs::Counter kCancelled("des.events_cancelled");
const obs::Gauge kHeapDepthMax("des.heap_depth_max");
const obs::Gauge kPending("des.events_pending");

/// Per-type histogram cache; the mutex/map association is annotated so the
/// thread-safety analysis covers the interning path.
struct HistogramCache {
  Mutex mutex;
  std::map<std::string, obs::Histogram> cache GT_GUARDED_BY(mutex);
};

/// Per-type execution-time histogram, interned once per type name.
const obs::Histogram& event_type_histogram(const char* type) {
  static HistogramCache& table = *new HistogramCache();  // leaked: immortal
  const MutexLock lock(&table.mutex);
  const auto it = table.cache.find(type);
  if (it != table.cache.end()) return it->second;
  return table.cache
      .emplace(type, obs::Histogram(std::string("des.event_ns.") + type,
                                    obs::duration_bounds_ns()))
      .first->second;
}

}  // namespace

Simulator::~Simulator() { publish_metrics(); }

EventNode* Simulator::schedule_node(SimTime time, const char* type) {
  GT_REQUIRE(time >= now_, "cannot schedule an event in the past");
  const PoolHandle h = pool_.allocate();
  EventNode& node = pool_.get(h);
  node.time = time;
  node.seq = next_seq_++;
  node.self = h;
  node.type = type;
  node.cancelled = false;
  queue_.push(&node);
  ++scheduled_;
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
  return &node;
}

EventId Simulator::schedule_in(SimTime delay, std::function<void()> action,
                               const char* type) {
  GT_REQUIRE(delay >= 0.0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(action), type);
}

bool Simulator::cancel(EventId id) {
  if (!pool_.valid(id)) return false;
  EventNode& node = pool_.get(id);
  if (node.cancelled) return false;
  // Lazy cancellation: the node stays linked in the calendar and is
  // recycled when the cursor reaches it.  Drop the closure now so captured
  // resources are released at cancel time, as with the old eager erase.
  node.cancelled = true;
  node.action.reset();
  ++cancelled_count_;
  ++cancelled_pending_;
  return true;
}

EventNode* Simulator::pop_live(SimTime bound) {
  while (EventNode* node = queue_.pop_if_at_most(bound)) {
    if (node->cancelled) {
      --cancelled_pending_;
      pool_.release(node->self);
      continue;
    }
    return node;
  }
  return nullptr;
}

void Simulator::execute(EventNode* node) {
  // Move the payload out and recycle the node before invoking: the action
  // may schedule new events, and those may legitimately reuse this slot.
  InlineAction action;
  node->action.relocate_to(action);
  const char* type = node->type;
  pool_.release(node->self);
  ++executed_;
  if (type != nullptr && obs::registry() != nullptr) {
    const void* histogram = nullptr;
    for (const auto& [label, cached] : type_cache_) {
      if (label == type) {
        histogram = cached;
        break;
      }
    }
    if (histogram == nullptr) {
      histogram = &event_type_histogram(type);
      type_cache_.emplace_back(type, histogram);
    }
    obs::ScopedTimer timer(*static_cast<const obs::Histogram*>(histogram));
    action.invoke();
  } else {
    action.invoke();
  }
}

bool Simulator::step() {
  EventNode* node = pop_live(std::numeric_limits<double>::infinity());
  if (node == nullptr) return false;
  GT_ASSERT(node->time >= now_);
  now_ = node->time;
  execute(node);
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t budget = max_events;
  while (step()) {
    if (max_events != 0 && --budget == 0) break;
  }
  publish_metrics();
}

void Simulator::publish_metrics() {
  if (obs::registry() == nullptr) return;
  kExecuted.add(static_cast<double>(executed_ - published_.executed));
  kScheduled.add(static_cast<double>(scheduled_ - published_.scheduled));
  kCancelled.add(static_cast<double>(cancelled_count_ - published_.cancelled));
  kHeapDepthMax.set(static_cast<double>(max_queue_depth_));
  kPending.set(static_cast<double>(pending_events()));
  published_ = {executed_, scheduled_, cancelled_count_};
}

}  // namespace gridtrust::des
