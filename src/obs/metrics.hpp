// Observability: process-wide metrics registry with lock-free recording.
//
// The library's hot paths (DES event loop, Γ evaluation, heuristic mapping)
// record into named counters, gauges, and fixed-bucket histograms.  The
// design goals, in order:
//
//   1. Disabled cost ≈ zero: when no MetricsRegistry is installed, every
//      record call is one relaxed atomic load and one predictable branch.
//   2. No locks and no read-modify-writes on the hot path: each recording
//      thread writes to its own shard (a relaxed load plus a relaxed store,
//      never a locked instruction); shards are merged only when a snapshot
//      is taken.
//   3. Stable handles: metric names are interned once, process-wide, into
//      small integer ids.  Handles (`Counter`, `Gauge`, `Histogram`) are
//      immutable and freely copyable/shared across threads.
//
// Usage:
//
//   static const obs::Counter kExecuted("des.events_executed");
//   ...
//   kExecuted.add();                       // no-op unless a registry is live
//
//   obs::MetricsRegistry registry;
//   obs::install(&registry);               // start collecting
//   ...run...
//   obs::Snapshot snap = registry.snapshot();
//   obs::install(nullptr);                 // stop collecting
//
// Naming convention: `<module>.<noun>[.<qualifier>]`, lower_snake within
// segments (e.g. "des.events_executed", "sched.map_batch_ns").  Durations
// are always nanoseconds and end in `_ns`.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace gridtrust::obs {

/// What a metric id refers to.  A name has exactly one kind for the lifetime
/// of the process; re-registering with a different kind throws.
enum class MetricKind { kCounter, kGauge, kHistogram };

namespace detail {

/// One thread's private storage.
///
/// Single-writer rule: only the thread that attached a shard ever writes to
/// it, and snapshot() only loads.  A writer can therefore update a cell with
/// a relaxed load plus a relaxed store (see `bump`) instead of `fetch_add`,
/// which for `atomic<double>` is a `lock cmpxchg` loop.  The cells stay
/// atomics so a concurrent snapshot reads whole values; the reader uses
/// acquire loads on the chunk pointers, so merging while workers record is
/// race-free.  Handing one shard to two writing threads would lose updates.
class Shard {
 public:
  static constexpr std::size_t kChunkSize = 64;
  static constexpr std::size_t kMaxChunks = 64;  // 4096 metrics per process

  /// Per-histogram storage: bucket counts plus running moments.  `bounds`
  /// is copied in at allocation (before the cell is published) so the hot
  /// path never touches the shared interner.
  struct HistCell {
    explicit HistCell(std::vector<double> bucket_bounds);
    void observe(double value);

    std::vector<double> bounds;                         // immutable
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;  // bounds.size()+1
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min;
    std::atomic<double> max;
  };

  /// One metric slot.  Counters use `a` (sum); gauges use `a` (running max)
  /// and `n` (set count); histograms use `hist`.
  struct Cell {
    std::atomic<double> a{0.0};
    std::atomic<std::uint64_t> n{0};
    std::atomic<HistCell*> hist{nullptr};
  };

  Shard() = default;
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Owner-thread accessor: one relaxed load of the chunk pointer.  The
  /// first touch of a chunk allocates it out of line.  `id` comes from
  /// `intern`, which keeps it below kChunkSize * kMaxChunks.
  Cell& cell(std::uint32_t id) {
    Chunk* chunk = chunks_[id / kChunkSize].load(std::memory_order_relaxed);
    if (chunk == nullptr) [[unlikely]] chunk = allocate_chunk(id / kChunkSize);
    return chunk->cells[id % kChunkSize];
  }

  /// Owner-thread accessor for histogram `id`'s storage; the first touch
  /// allocates it out of line.
  HistCell& hist(std::uint32_t id) {
    Cell& slot = cell(id);
    HistCell* storage = slot.hist.load(std::memory_order_relaxed);
    if (storage == nullptr) [[unlikely]] storage = allocate_hist(slot, id);
    return *storage;
  }

  /// Reader accessor; returns nullptr when the chunk was never touched.
  const Cell* try_cell(std::uint32_t id) const;

 private:
  struct Chunk {
    std::array<Cell, kChunkSize> cells;
  };

  /// Allocates chunk `index` and publishes it with a release store, so a
  /// snapshotting thread that acquires the pointer sees zeroed cells.
  Chunk* allocate_chunk(std::size_t index);
  /// Allocates `slot`'s histogram storage with metric `id`'s bounds and
  /// publishes it with a release store.
  HistCell* allocate_hist(Cell& slot, std::uint32_t id);

  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
};

/// Adds `delta` to a cell of the calling thread's own shard.  Not an atomic
/// read-modify-write: correct only under the shard's single-writer rule.
template <typename T>
void bump(std::atomic<T>& cell, T delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

/// A thread's shard for one install generation.  Both members have
/// constant initializers, so the `constinit` thread_local below is read
/// without a TLS initialization guard.
struct ThreadCache {
  std::uint64_t generation = ~std::uint64_t{0};
  Shard* shard = nullptr;
};

/// Bumped on every install(); a recording thread re-resolves its shard
/// when the generation moves, so a stale shard pointer is never
/// dereferenced.
extern std::atomic<std::uint64_t> g_generation;
extern thread_local constinit ThreadCache t_cache;

/// Cold path of current_shard(): the installed registry changed since this
/// thread last recorded; attaches (or detaches) the thread and caches the
/// result for `generation`.
Shard* refresh_cache(std::uint64_t generation);

/// The owner thread's shard for the currently installed registry, or
/// nullptr when collection is disabled.  This is the whole hot path guard:
/// one acquire load of the generation and one compare against the
/// thread's cache.
inline Shard* current_shard() {
  const std::uint64_t generation =
      g_generation.load(std::memory_order_acquire);
  if (t_cache.generation == generation) [[likely]] return t_cache.shard;
  return refresh_cache(generation);
}

/// Interns `name`, enforcing kind (and bucket-bounds) consistency.
std::uint32_t intern(std::string_view name, MetricKind kind,
                     std::vector<double> bounds = {});

}  // namespace detail

/// Merged view of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;           ///< upper bucket bounds (inclusive)
  std::vector<std::uint64_t> buckets;   ///< bounds.size() + 1 (last = +inf)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when empty
  double max = 0.0;  ///< 0 when empty
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Point-in-time merged view of every metric ever recorded into a registry.
/// Metrics that were interned but never recorded are omitted.
struct Snapshot {
  std::map<std::string, double> counters;
  /// Gauges are high-watermarks: the max value ever set (across threads)
  /// since the registry was installed.
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Collects per-thread shards.  A registry owns the storage; installing it
/// (see `install`) routes every handle's record calls into it.  Threads
/// lazily attach a shard on their first record and are its only writer;
/// shards outlive their threads so a snapshot sees completed workers' data.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  /// Auto-uninstalls if this registry is still the installed one.
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Merges every shard.  Safe to call while recording threads are live
  /// (their in-flight updates land in a later snapshot).
  Snapshot snapshot() const GT_EXCLUDES(mutex_);

  /// Internal: creates and adopts a shard for the calling thread.  Called
  /// by the recording machinery; not part of the public surface.
  detail::Shard* attach_shard() GT_EXCLUDES(mutex_);

 private:
  /// Guards the shard list only; the cells inside each shard are lock-free
  /// (single-writer relaxed atomics, see detail::Shard).
  mutable gridtrust::Mutex mutex_;
  std::vector<std::unique_ptr<detail::Shard>> shards_ GT_GUARDED_BY(mutex_);
};

/// Installs `registry` as the process-wide collection target (nullptr
/// disables collection).  Not thread-safe against concurrent record calls
/// into the *previous* registry: quiesce recording threads before swapping
/// or destroying a registry.
void install(MetricsRegistry* registry);

/// The currently installed registry, or nullptr.
MetricsRegistry* registry();

/// Monotonically increasing counter (events executed, Γ evaluations, ...).
class Counter {
 public:
  explicit Counter(std::string_view name)
      : id_(detail::intern(name, MetricKind::kCounter)) {}

  void add(double delta = 1.0) const {
    if (detail::Shard* shard = detail::current_shard()) {
      detail::bump(shard->cell(id_).a, delta);
    }
  }

 private:
  std::uint32_t id_;
};

/// High-watermark gauge (record count, heap depth, ...): the snapshot
/// reports the max value ever set since the registry was installed.
class Gauge {
 public:
  explicit Gauge(std::string_view name)
      : id_(detail::intern(name, MetricKind::kGauge)) {}

  void set(double value) const {
    if (detail::Shard* shard = detail::current_shard()) {
      detail::Shard::Cell& cell = shard->cell(id_);
      if (cell.n.load(std::memory_order_relaxed) == 0 ||
          value > cell.a.load(std::memory_order_relaxed)) {
        cell.a.store(value, std::memory_order_relaxed);
      }
      detail::bump<std::uint64_t>(cell.n, 1);
    }
  }

 private:
  std::uint32_t id_;
};

/// Fixed-bucket histogram.  Bucket i counts values <= bounds[i] (first
/// matching bound); the implicit last bucket counts the overflow.
class Histogram {
 public:
  Histogram(std::string_view name, std::vector<double> bounds)
      : id_(detail::intern(name, MetricKind::kHistogram, std::move(bounds))) {}

  void observe(double value) const {
    if (detail::Shard* shard = detail::current_shard()) {
      shard->hist(id_).observe(value);
    }
  }

 private:
  std::uint32_t id_;
};

/// Exponential bounds for durations in nanoseconds: 100 ns .. ~100 ms.
std::vector<double> duration_bounds_ns();

/// Power-of-two-ish bounds for small cardinalities (batch sizes, depths).
std::vector<double> count_bounds();

/// RAII wall-clock timer recording elapsed nanoseconds into a histogram on
/// destruction.  When collection is disabled at construction the clock is
/// never read, so a dormant timer costs one load and one branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(const Histogram& histogram)
      : histogram_(detail::current_shard() != nullptr ? &histogram : nullptr) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      histogram_->observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gridtrust::obs
