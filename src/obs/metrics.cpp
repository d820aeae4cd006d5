#include "obs/metrics.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"
#include "common/sync.hpp"

namespace gridtrust::obs {

namespace detail {

namespace {

/// Process-wide append-only name table.  Ids are stable for the lifetime of
/// the process, so handles stay valid across registry installs.
struct Interner {
  Mutex mutex;
  std::unordered_map<std::string, std::uint32_t> by_name GT_GUARDED_BY(mutex);
  struct Info {
    std::string name;
    MetricKind kind;
    std::vector<double> bounds;
  };
  std::vector<Info> infos GT_GUARDED_BY(mutex);
};

Interner& interner() {
  static Interner instance;
  return instance;
}

std::atomic<MetricsRegistry*> g_registry{nullptr};

}  // namespace

std::atomic<std::uint64_t> g_generation{0};
thread_local constinit ThreadCache t_cache;

Shard* refresh_cache(std::uint64_t generation) {
  MetricsRegistry* reg = g_registry.load(std::memory_order_acquire);
  t_cache.shard = reg != nullptr ? reg->attach_shard() : nullptr;
  t_cache.generation = generation;
  return t_cache.shard;
}

Shard::HistCell::HistCell(std::vector<double> bucket_bounds)
    : bounds(std::move(bucket_bounds)),
      buckets(new std::atomic<std::uint64_t>[bounds.size() + 1]),
      min(std::numeric_limits<double>::infinity()),
      max(-std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 0; i <= bounds.size(); ++i) buckets[i].store(0);
}

void Shard::HistCell::observe(double value) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds.begin());
  bump<std::uint64_t>(buckets[bucket], 1);
  bump<std::uint64_t>(count, 1);
  bump(sum, value);
  if (value < min.load(std::memory_order_relaxed)) {
    min.store(value, std::memory_order_relaxed);
  }
  if (value > max.load(std::memory_order_relaxed)) {
    max.store(value, std::memory_order_relaxed);
  }
}

Shard::~Shard() {
  for (std::atomic<Chunk*>& slot : chunks_) {
    Chunk* chunk = slot.load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (Cell& cell : chunk->cells) {
      delete cell.hist.load(std::memory_order_acquire);
    }
    delete chunk;
  }
}

Shard::Chunk* Shard::allocate_chunk(std::size_t index) {
  GT_ASSERT(index < kMaxChunks);
  auto* chunk = new Chunk();
  chunks_[index].store(chunk, std::memory_order_release);
  return chunk;
}

Shard::HistCell* Shard::allocate_hist(Cell& slot, std::uint32_t id) {
  std::vector<double> bounds;
  {
    Interner& table = interner();
    const MutexLock lock(&table.mutex);
    bounds = table.infos[id].bounds;
  }
  auto* hist = new HistCell(std::move(bounds));
  slot.hist.store(hist, std::memory_order_release);
  return hist;
}

const Shard::Cell* Shard::try_cell(std::uint32_t id) const {
  const std::size_t chunk_index = id / kChunkSize;
  if (chunk_index >= kMaxChunks) return nullptr;
  const Chunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk->cells[id % kChunkSize];
}

std::uint32_t intern(std::string_view name, MetricKind kind,
                     std::vector<double> bounds) {
  GT_REQUIRE(!name.empty(), "metric names must be non-empty");
  if (kind == MetricKind::kHistogram) {
    GT_REQUIRE(!bounds.empty(), "histograms need at least one bucket bound");
    GT_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
               "histogram bucket bounds must be sorted ascending");
  }
  Interner& table = interner();
  const MutexLock lock(&table.mutex);
  const auto it = table.by_name.find(std::string(name));
  if (it != table.by_name.end()) {
    const Interner::Info& info = table.infos[it->second];
    GT_REQUIRE(info.kind == kind,
               "metric re-registered with a different kind: " + info.name);
    GT_REQUIRE(kind != MetricKind::kHistogram || info.bounds == bounds,
               "histogram re-registered with different bounds: " + info.name);
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(table.infos.size());
  GT_REQUIRE(id < Shard::kChunkSize * Shard::kMaxChunks,
             "metric id space exhausted");
  table.infos.push_back(
      Interner::Info{std::string(name), kind, std::move(bounds)});
  table.by_name.emplace(std::string(name), id);
  return id;
}

}  // namespace detail

MetricsRegistry::~MetricsRegistry() {
  if (registry() == this) install(nullptr);
}

detail::Shard* MetricsRegistry::attach_shard() {
  const MutexLock lock(&mutex_);
  shards_.push_back(std::make_unique<detail::Shard>());
  return shards_.back().get();
}

Snapshot MetricsRegistry::snapshot() const {
  // Copy the interner's current view first (its lock is independent).
  struct NameInfo {
    std::string name;
    MetricKind kind;
    std::vector<double> bounds;
  };
  std::vector<NameInfo> names;
  {
    detail::Interner& table = detail::interner();
    const MutexLock lock(&table.mutex);
    names.reserve(table.infos.size());
    for (const auto& info : table.infos) {
      names.push_back(NameInfo{info.name, info.kind, info.bounds});
    }
  }

  Snapshot snap;
  const MutexLock lock(&mutex_);
  for (std::uint32_t id = 0; id < names.size(); ++id) {
    const NameInfo& info = names[id];
    switch (info.kind) {
      case MetricKind::kCounter: {
        double total = 0.0;
        bool touched = false;
        for (const auto& shard : shards_) {
          const detail::Shard::Cell* cell = shard->try_cell(id);
          if (cell == nullptr) continue;
          const double v = cell->a.load(std::memory_order_relaxed);
          if (v != 0.0) touched = true;
          total += v;
        }
        if (touched) snap.counters[info.name] = total;
        break;
      }
      case MetricKind::kGauge: {
        double merged = 0.0;
        bool any = false;
        for (const auto& shard : shards_) {
          const detail::Shard::Cell* cell = shard->try_cell(id);
          if (cell == nullptr) continue;
          if (cell->n.load(std::memory_order_relaxed) == 0) continue;
          const double v = cell->a.load(std::memory_order_relaxed);
          merged = any ? std::max(merged, v) : v;
          any = true;
        }
        if (any) snap.gauges[info.name] = merged;
        break;
      }
      case MetricKind::kHistogram: {
        HistogramSnapshot merged;
        merged.bounds = info.bounds;
        merged.buckets.assign(info.bounds.size() + 1, 0);
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const auto& shard : shards_) {
          const detail::Shard::Cell* cell = shard->try_cell(id);
          if (cell == nullptr) continue;
          const detail::Shard::HistCell* hist =
              cell->hist.load(std::memory_order_acquire);
          if (hist == nullptr) continue;
          for (std::size_t b = 0; b <= info.bounds.size(); ++b) {
            merged.buckets[b] += hist->buckets[b].load(std::memory_order_relaxed);
          }
          merged.count += hist->count.load(std::memory_order_relaxed);
          merged.sum += hist->sum.load(std::memory_order_relaxed);
          lo = std::min(lo, hist->min.load(std::memory_order_relaxed));
          hi = std::max(hi, hist->max.load(std::memory_order_relaxed));
        }
        if (merged.count > 0) {
          merged.min = lo;
          merged.max = hi;
          snap.histograms[info.name] = merged;
        }
        break;
      }
    }
  }
  return snap;
}

void install(MetricsRegistry* target) {
  detail::g_registry.store(target, std::memory_order_release);
  detail::g_generation.fetch_add(1, std::memory_order_acq_rel);
}

MetricsRegistry* registry() {
  return detail::g_registry.load(std::memory_order_acquire);
}

std::vector<double> duration_bounds_ns() {
  // 100 ns .. 100 ms, half-decade steps.
  return {1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5,
          1e6, 3e6, 1e7, 3e7, 1e8};
}

std::vector<double> count_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384};
}

}  // namespace gridtrust::obs
