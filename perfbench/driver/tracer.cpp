#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_generation{1};

// The calling thread's buffer in the tracer of one generation; a new tracer
// (a new generation) makes every thread register afresh.
struct LocalSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot local_slot;

std::int64_t ns_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
      .count();
}

}  // namespace

Tracer::Tracer()
    : generation_(next_generation.fetch_add(1)), epoch_(Clock::now()) {}

Tracer::Id Tracer::intern(const std::string& name) {
  const gridtrust::MutexLock lock(&mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<Id>(i);
  }
  if (names_.size() >= 0xffff) throw std::length_error("too many span names");
  names_.push_back(name);
  return static_cast<Id>(names_.size() - 1);
}

std::string Tracer::name(Id id) const {
  const gridtrust::MutexLock lock(&mutex_);
  return names_.at(id);
}

Tracer::Buffer& Tracer::local() {
  if (local_slot.generation != generation_) {
    const gridtrust::MutexLock lock(&mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<std::uint16_t>(buffers_.size());
    local_slot = {generation_, buffers_.back().get()};
  }
  return *static_cast<Buffer*>(local_slot.buffer);
}

void Tracer::span(Id id, Clock::time_point begin, Clock::time_point end) {
  Buffer& buffer = local();
  buffer.spans.push_back(
      {id, buffer.tid, ns_between(epoch_, begin), ns_between(begin, end)});
}

void Tracer::sample(Id id, double value) {
  local().samples.push_back({id, value});
}

std::vector<Tracer::Span> Tracer::spans() const {
  const gridtrust::MutexLock lock(&mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

std::vector<Tracer::Sample> Tracer::samples() const {
  const gridtrust::MutexLock lock(&mutex_);
  std::vector<Sample> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->samples.begin(), buffer->samples.end());
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path,
                                std::size_t max_spans) const {
  const gridtrust::MutexLock lock(&mutex_);
  std::size_t recorded = 0;
  for (const auto& buffer : buffers_) recorded += buffer->spans.size();
  const std::size_t per_thread =
      buffers_.empty() ? 0 : max_spans / buffers_.size();

  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  std::size_t written = 0;
  char line[256];
  for (const auto& buffer : buffers_) {
    const std::size_t n = std::min(buffer->spans.size(), per_thread);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = buffer->spans[i];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    first ? "" : ",", names_[s.id].c_str(),
                    static_cast<unsigned>(s.tid),
                    static_cast<double>(s.begin_ns) / 1e3,
                    static_cast<double>(s.dur_ns) / 1e3);
      out << line;
      first = false;
      ++written;
    }
  }
  out << "\n],\"metadata\":{\"spans_recorded\":" << recorded
      << ",\"spans_written\":" << written << "}}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
