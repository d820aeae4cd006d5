// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around public library calls from the benchmark's own
// code (never from inside src/), buffered per thread in memory, and written
// once at exit as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open directly and which later in-program spans can merge
// into.  Counts (events per run, bytes written) ride along as samples of a
// name.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  using Id = std::uint16_t;

  struct Span {
    Id id = 0;
    std::uint16_t tid = 0;
    std::int64_t begin_ns = 0;  ///< since the tracer's epoch
    std::int64_t dur_ns = 0;
  };
  struct Sample {
    Id id = 0;
    double value = 0.0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Returns the id of `name`, registering it on first use.  Names are
  /// metric-safe ([A-Za-z0-9_.-]), so they need no escaping in JSON.
  Id intern(const std::string& name) GT_EXCLUDES(mutex_);
  std::string name(Id id) const GT_EXCLUDES(mutex_);

  /// Thread-safe: each thread appends to its own buffer.
  void span(Id id, Clock::time_point begin, Clock::time_point end);
  void sample(Id id, double value);

  /// Read-side accessors.  Call only once no thread records any more (after
  /// the pool's parallel_for returned, which orders the workers' writes).
  std::vector<Span> spans() const GT_EXCLUDES(mutex_);
  std::vector<Sample> samples() const GT_EXCLUDES(mutex_);

  /// Writes at most `max_spans` spans (the earliest of each thread) as a
  /// Chrome trace-event JSON document; the recorded and written counts go
  /// into its metadata so a truncated file says so.
  void write_chrome_trace(const std::string& path, std::size_t max_spans) const
      GT_EXCLUDES(mutex_);

 private:
  struct Buffer {
    std::uint16_t tid = 0;
    std::vector<Span> spans;
    std::vector<Sample> samples;
  };
  Buffer& local() GT_EXCLUDES(mutex_);

  const std::uint64_t generation_;
  const Clock::time_point epoch_;
  mutable gridtrust::Mutex mutex_;
  std::vector<std::string> names_ GT_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Buffer>> buffers_ GT_GUARDED_BY(mutex_);
};

/// RAII span: records [construction, destruction) under `id`; a null tracer
/// records nothing, so untraced passes share the traced call sites.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::Id id)
      : tracer_(tracer), id_(id), begin_(Clock::now()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->span(id_, begin_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Tracer::Id id_;
  Clock::time_point begin_;
};

}  // namespace perfbench
