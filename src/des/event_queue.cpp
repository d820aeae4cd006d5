#include "des/event_queue.hpp"

#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace gridtrust::des {

namespace {

// Geometry bounds.  The queue starts tiny and doubles/halves with load;
// the cap bounds the bucket directory at 16 MiB of pointers (2^21 * 8 B)
// while still giving million-event queues ~1 event per bucket.
constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

// Width targets ~1 pending event per virtual bucket: with the doubling
// policy below (grow past occupancy 1, shrink below 1/4) sorted inserts
// walk O(1) links and the year scan touches O(1) buckets per pop.
constexpr double kWidthGapFactor = 1.0;

// Smoothing for the pop-gap EWMA that drives width estimation (1/16: slow
// enough to ride out bursts, fast enough to track rate changes within a
// few hundred pops).
constexpr double kGapAlpha = 0.0625;

// Virtual bucket indices are clamped below 2^63 so the double -> uint64
// cast is always defined; everything beyond collapses into one far-future
// virtual bucket, which degrades to a sorted list but stays correct.
constexpr double kVbClamp = 9223372036854775808.0;  // 2^63
constexpr std::uint64_t kVbMax = std::uint64_t{1} << 63;

// Pull a node's two cache lines toward the core while unrelated work runs
// (the next pop's victim is known as soon as the current one is unlinked,
// and the caller executes an action in between — ideal prefetch distance).
inline void prefetch_node(const EventNode* node) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(node);
  __builtin_prefetch(reinterpret_cast<const char*>(node) + 64);
#else
  (void)node;
#endif
}

}  // namespace

CalendarQueue::CalendarQueue()
    : buckets_(kMinBuckets, nullptr), mask_(kMinBuckets - 1) {}

std::uint64_t CalendarQueue::vb_of(SimTime t) const {
  const double v = t * inv_width_;
  if (!(v < kVbClamp)) return kVbMax;  // also catches +inf
  return static_cast<std::uint64_t>(v);
}

void CalendarQueue::link(EventNode* node) {
  const std::size_t b = static_cast<std::size_t>(vb_of(node->time) & mask_);
  EventNode** at = &buckets_[b];
  while (*at != nullptr && event_before(**at, *node)) at = &(*at)->next;
  node->next = *at;
  *at = node;
}

void CalendarQueue::push(EventNode* node) {
  GT_ASSERT(node != nullptr && node->next == nullptr);
  const std::uint64_t vb = vb_of(node->time);
  if (size_ == 0 || vb < vb_current_) {
    // An event earlier than the cursor (or a fresh queue): rewind so the
    // year scan cannot walk past it.  This is what keeps a pop a strict
    // (time, seq) minimum even after a bounded pop peeked far ahead.
    vb_current_ = vb;
    current_ = static_cast<std::size_t>(vb & mask_);
  }
  link(node);
  ++size_;
  if (size_ > buckets_.size() && buckets_.size() < kMaxBuckets) {
    rebuild(buckets_.size() * 2);
  }
}

EventNode* CalendarQueue::locate_min() {
  if (size_ == 0) return nullptr;
  // One calendar year of buckets, in virtual-bucket (time) order.  Bucket
  // chains are time-sorted and virtual buckets partition time, so the
  // first head that belongs to the cursor's virtual bucket is the global
  // minimum (no pending event sits below the cursor; see push()).
  for (std::size_t step = 0; step < buckets_.size(); ++step) {
    EventNode* head = buckets_[current_];
    if (head != nullptr && vb_of(head->time) == vb_current_) {
      prefetch_node(head);  // its payload line, for the imminent execute
      return head;
    }
    current_ = (current_ + 1) & mask_;
    ++vb_current_;
  }
  // Nothing due within a full year: direct-search the bucket heads for the
  // global minimum and jump the cursor to it (sparse/far-future regime).
  EventNode* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    EventNode* head = buckets_[b];
    if (head != nullptr && (best == nullptr || event_before(*head, *best))) {
      best = head;
      best_bucket = b;
    }
  }
  GT_ASSERT(best != nullptr);
  current_ = best_bucket;
  vb_current_ = vb_of(best->time);
  return best;
}

void CalendarQueue::unlink_min(EventNode* node) {
  GT_ASSERT(buckets_[current_] == node);
  buckets_[current_] = node->next;
  node->next = nullptr;
  --size_;
  // Start fetching the next few pop victims now: the upcoming minima are
  // the chain successor and the heads of the next occupied buckets, and
  // issuing their loads here overlaps the misses across pops (the drain
  // path is DRAM-latency-bound, not instruction-bound).
  int fetched = 0;
  if (buckets_[current_] != nullptr) {
    prefetch_node(buckets_[current_]);
    ++fetched;
  }
  for (std::size_t i = 1; i <= 8 && fetched < 3; ++i) {
    EventNode* head = buckets_[(current_ + i) & mask_];
    if (head != nullptr) {
      prefetch_node(head);
      ++fetched;
    }
  }
  // Feed the width estimator: pops are monotone in time, so consecutive
  // pop times sample the inter-event gap at the queue head — the same
  // statistic Brown's rule sorts for, measured here in O(1).  Zero gaps
  // (event clusters) are skipped; they would drive the width to zero.
  const double gap = node->time - last_pop_time_;
  if (have_pop_ && gap > 0.0 && std::isfinite(gap)) {
    gap_ewma_ =
        gap_ewma_ == 0.0 ? gap : gap_ewma_ + (gap - gap_ewma_) * kGapAlpha;
  }
  if (std::isfinite(node->time)) {
    last_pop_time_ = node->time;
    have_pop_ = true;
  }
  // Shrink lazily (8x hysteresis, jumping straight to ~2 buckets/event):
  // rebuilds move every pending node, so fewer, larger steps beat the
  // steady halving cadence during a long drain.
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 8) {
    rebuild(std::max(kMinBuckets, std::bit_ceil(size_ * 2 + 1)));
  }
}

EventNode* CalendarQueue::pop_if_at_most(SimTime bound) {
  EventNode* node = locate_min();
  if (node == nullptr || node->time > bound) return nullptr;
  unlink_min(node);
  return node;
}

void CalendarQueue::rebuild(std::size_t new_bucket_count) {
  ++resizes_;
  std::vector<EventNode*> nodes;
  nodes.reserve(size_);
  // One pass: collect every node while tracking the global minimum (for
  // the cursor reset) and the finite time span (the width fallback).  No
  // sorting — width comes from the O(1) pop-gap EWMA once pops have
  // happened, and from the mean gap over the whole span before that.
  const EventNode* min = nullptr;
  double lo = 0.0;
  double hi = 0.0;
  bool have_span = false;
  for (EventNode*& head : buckets_) {
    for (EventNode* n = head; n != nullptr;) {
      EventNode* next = n->next;
      n->next = nullptr;
      nodes.push_back(n);
      if (min == nullptr || event_before(*n, *min)) min = n;
      if (std::isfinite(n->time)) {
        if (!have_span || n->time < lo) lo = n->time;
        if (!have_span || n->time > hi) hi = n->time;
        have_span = true;
      }
      n = next;
    }
    head = nullptr;
  }
  GT_ASSERT(nodes.size() == size_);

  double mean_gap = gap_ewma_;
  if (mean_gap == 0.0 && have_span && nodes.size() >= 2) {
    mean_gap = (hi - lo) / static_cast<double>(nodes.size() - 1);
  }
  if (std::isfinite(mean_gap) && mean_gap > 0.0) {
    width_ = kWidthGapFactor * mean_gap;
    inv_width_ = 1.0 / width_;
  }

  buckets_.assign(new_bucket_count, nullptr);
  mask_ = new_bucket_count - 1;
  vb_current_ = min == nullptr ? 0 : vb_of(min->time);
  current_ = static_cast<std::size_t>(vb_current_ & mask_);
  for (EventNode* n : nodes) link(n);
}

}  // namespace gridtrust::des
