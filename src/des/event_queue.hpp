// Pending-event sets for the DES kernel.
//
// CalendarQueue is the production scheduler: a Brown-style calendar queue
// with O(1) amortized enqueue/dequeue.  Events hash into year-ring buckets
// by time (bucket = floor(time / width) mod buckets); each bucket chains
// its events sorted by (time, seq), and a cursor walks virtual buckets in
// time order, so dequeue always yields the strict (time, seq) minimum —
// the exact total order the old binary heap produced, which is what keeps
// manifests bit-identical across the kernel swap (see docs/performance.md).
//
// ReferenceHeapQueue is the old binary-heap discipline kept as an
// executable specification: the conformance suite replays randomized
// workloads through both queues and requires identical pop sequences.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"

namespace gridtrust::des {

/// Simulation time in seconds since the start of the run.
using SimTime = double;

/// A type-erased `void()` callable stored inline — no heap allocation for
/// captures up to kBufSize bytes (larger ones degrade to a heap-held
/// std::function, which itself fits the buffer).  Living inside the
/// pool-allocated EventNode, the closure shares the node's cache lines:
/// scheduling a million events costs zero mallocs, and executing one reads
/// memory the scan already touched (docs/performance.md).
///
/// Deliberately neither copyable nor movable: nodes are pinned in the pool.
/// relocate_to() is the one sanctioned move, used to detach the payload
/// before the node is recycled.
class InlineAction {
 public:
  static constexpr std::size_t kBufSize = 48;
  static constexpr std::size_t kBufAlign = 16;

  InlineAction() = default;
  ~InlineAction() { reset(); }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  bool empty() const { return ops_ == nullptr; }

  /// Destroys the stored callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_(Op::kDestroy, buf_, nullptr);
      ops_ = nullptr;
    }
  }

  /// Stores a callable; must be empty.  Oversized or throwing-move
  /// callables are wrapped in std::function instead of stored directly.
  template <class F>
  void emplace(F f) {
    GT_ASSERT(ops_ == nullptr);
    if constexpr (sizeof(F) <= kBufSize && alignof(F) <= kBufAlign &&
                  std::is_nothrow_move_constructible_v<F>) {
      ::new (static_cast<void*>(buf_)) F(std::move(f));
      ops_ = &ops_impl<F>;
    } else {
      emplace(std::function<void()>(std::move(f)));
    }
  }

  /// Moves the callable into `dst` (which must be empty), leaving this
  /// action empty.
  void relocate_to(InlineAction& dst) {
    GT_ASSERT(dst.ops_ == nullptr);
    if (ops_ != nullptr) {
      ops_(Op::kRelocate, buf_, dst.buf_);
      dst.ops_ = ops_;
      ops_ = nullptr;
    }
  }

  /// Calls the stored callable (which must be present; it survives the
  /// call — reset() or destruction disposes of it).
  void invoke() {
    GT_ASSERT(ops_ != nullptr);
    ops_(Op::kInvoke, buf_, nullptr);
  }

 private:
  enum class Op { kInvoke, kDestroy, kRelocate };
  using OpsFn = void (*)(Op, void* self, void* dst);

  template <class F>
  static void ops_impl(Op op, void* self, void* dst) {
    F* f = std::launder(reinterpret_cast<F*>(self));
    switch (op) {
      case Op::kInvoke:
        (*f)();
        break;
      case Op::kDestroy:
        f->~F();
        break;
      case Op::kRelocate:
        ::new (dst) F(std::move(*f));
        f->~F();
        break;
    }
  }

  OpsFn ops_ = nullptr;
  alignas(kBufAlign) unsigned char buf_[kBufSize];
};

/// One scheduled event, pool-allocated (common/arena.hpp) and chained
/// intrusively into its calendar bucket.  The kernel owns the node from
/// schedule to execution; `self` is its pool handle (doubles as the public
/// EventId), so cancellation is a generation-checked array access instead
/// of a hash lookup.  Field order is load-bearing: the (time, seq, next)
/// prefix keeps bucket walks and year scans inside the node's first cache
/// line; the action payload trails and is only touched at schedule and
/// execute time.
struct EventNode {
  SimTime time = 0.0;
  std::uint64_t seq = 0;       ///< FIFO tie-break for equal times
  EventNode* next = nullptr;   ///< bucket chain link
  PoolHandle self = kNullPoolHandle;
  const char* type = nullptr;  ///< optional metrics label
  bool cancelled = false;
  InlineAction action;
};

/// Strict-weak order the kernel executes in: time, then schedule order.
inline bool event_before(const EventNode& a, const EventNode& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// Calendar queue over EventNode (storage owned by the caller's pool).
///
/// Invariants:
///   - every bucket chain is sorted by (time, seq);
///   - the cursor (current_, vb_current_) trails every pending event's
///     virtual bucket (push rewinds it when an earlier event arrives);
///   - pop_if_at_most() sees the global (time, seq) minimum — independent
///     of the bucket count, bucket width, or resize history.
class CalendarQueue {
 public:
  CalendarQueue();

  /// Links a node into the calendar.  The node must be unlinked
  /// (next == nullptr) and outlive its stay in the queue.
  void push(EventNode* node);

  /// Unlinks and returns the (time, seq) minimum when its time is
  /// <= `bound` (+infinity pops any minimum); otherwise, or when empty,
  /// returns nullptr and leaves the queue untouched.
  EventNode* pop_if_at_most(SimTime bound);

  /// Pending nodes (cancelled ones included until popped).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Introspection for tests and the performance handbook.
  std::size_t bucket_count() const { return buckets_.size(); }
  double bucket_width() const { return width_; }
  std::uint64_t resizes() const { return resizes_; }

 private:
  /// Virtual (absolute) bucket index of a time under the current width.
  std::uint64_t vb_of(SimTime t) const;

  /// Positions the cursor on the minimum's bucket and returns the node
  /// (still linked as that bucket's head); nullptr when empty.
  EventNode* locate_min();

  /// Unlinks the head of the cursor bucket (must be the located minimum)
  /// and feeds the pop-gap width estimator.
  void unlink_min(EventNode* node);

  /// Sorted insert without resize checks (shared by push and rebuild).
  void link(EventNode* node);

  void rebuild(std::size_t new_bucket_count);

  std::vector<EventNode*> buckets_;
  std::uint64_t mask_ = 0;        // buckets_.size() - 1 (power of two)
  double width_ = 1.0;            // seconds per bucket
  double inv_width_ = 1.0;        // 1 / width_, the hot-path form
  std::size_t current_ = 0;       // cursor bucket (== vb_current_ & mask_)
  std::uint64_t vb_current_ = 0;  // cursor virtual bucket
  std::size_t size_ = 0;
  std::uint64_t resizes_ = 0;
  // Width estimator: EWMA of nonzero gaps between successive pop times —
  // the head-gap statistic Brown samples, maintained in O(1) instead of by
  // sorting at resize time.  Width never affects pop order, only speed.
  double last_pop_time_ = 0.0;
  double gap_ewma_ = 0.0;  // 0 = no nonzero-gap samples yet
  bool have_pop_ = false;
};

/// The pre-rework binary-heap discipline: an executable specification for
/// the conformance suite.  Same push/pop contract as CalendarQueue (it
/// does not use the intrusive `next` link, so the same node may be staged
/// in both queues by tests).
class ReferenceHeapQueue {
 public:
  void push(EventNode* node) {
    heap_.push_back(node);
    std::push_heap(heap_.begin(), heap_.end(), later_);
  }

  EventNode* pop() {
    if (heap_.empty()) return nullptr;
    std::pop_heap(heap_.begin(), heap_.end(), later_);
    EventNode* node = heap_.back();
    heap_.pop_back();
    return node;
  }

  EventNode* pop_if_at_most(SimTime bound) {
    if (heap_.empty() || heap_.front()->time > bound) return nullptr;
    return pop();
  }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  struct Later {
    bool operator()(const EventNode* a, const EventNode* b) const {
      return event_before(*b, *a);
    }
  };
  Later later_;
  std::vector<EventNode*> heap_;
};

}  // namespace gridtrust::des
