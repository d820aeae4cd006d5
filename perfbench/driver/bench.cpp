#include "bench.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.hpp"

namespace perfbench {

namespace {

constexpr double kWarmupSeconds = 1.0;
constexpr std::size_t kMinPasses = 3;

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"units_per_s", "units/s"},
      {"cpu_us_per_unit", "us"},
      {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.scenario_build_us", "us"},
      {"sim.draw_instance_us", "us"},
      {"sim.run_trms_us.mct", "us"},
      {"sim.run_trms_us.min-min", "us"},
      {"sim.run_trms_us.sufferage", "us"},
      {"des.events_per_trms", "count"},
      {"des.run_s", "s"},
      {"des.events_per_s", "1/s"},
      {"des.pending_peak", "count"},
      {"des.generate_s", "s"},
      {"chaos.campaign_ms.gamma", "ms"},
      {"chaos.campaign_ms.beta", "ms"},
      {"chaos.campaign_ms.fuzzy", "ms"},
      {"chaos.campaign_ms.purge_gamma", "ms"},
      {"chaos.campaign_ms.robustness", "ms"},
      {"econ.campaign_ms.posted-cost", "ms"},
      {"econ.campaign_ms.posted-time", "ms"},
      {"econ.campaign_ms.auction", "ms"},
      {"lab.journal_ms", "ms"},
      {"lab.journal_bytes", "bytes"},
      {"fs.fsyncs", "count"},
      {"lab.manifest_write_ms", "ms"},
      {"lab.manifest_read_ms", "ms"},
      {"lab.non_unit_ms_per_sweep", "ms"},
      {"pool.idle_share", "share"},
      {"attrib.unattributed_pct", "%"},
      {"trace.untraced_units_per_s", "units/s"},
      {"trace.traced_units_per_s", "units/s"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

void Checks::record(const std::string& name, bool ok,
                    std::uint64_t failed_ops) {
  ++evaluated_;
  auto it = std::find_if(tallies_.begin(), tallies_.end(),
                         [&](const Tally& t) { return t.name == name; });
  if (it == tallies_.end()) {
    tallies_.push_back({name, 0, 0});
    it = std::prev(tallies_.end());
  }
  if (ok) {
    ++it->ok;
  } else {
    ++it->bad;
    failed_ops_ += std::max<std::uint64_t>(1, failed_ops);
  }
}

bool Checks::all_ok() const {
  return std::none_of(tallies_.begin(), tallies_.end(),
                      [](const Tally& t) { return t.bad > 0; });
}

std::vector<std::string> Checks::lines() const {
  std::vector<std::string> out;
  for (const Tally& t : tallies_) {
    out.push_back(std::string(t.bad > 0 ? "check FAIL  " : "check PASS  ") +
                  t.name + " (" + std::to_string(t.ok) + "/" +
                  std::to_string(t.ok + t.bad) + ")");
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // exec, so under a launcher (run.py) it would report the launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t pass_seed(std::uint64_t workload_seed, std::uint64_t stream,
                        std::size_t pass) {
  return gridtrust::derive_seed(stream,
                                {static_cast<std::size_t>(workload_seed)}) +
         pass;
}

std::size_t seed_index(std::size_t pass, bool trace) {
  return trace ? pass / 2 : pass;
}

void warm_up(const PassHooks& hooks) {
  const auto begin = Clock::now();
  std::size_t i = 0;
  do {
    if (hooks.prepare) hooks.prepare(i);
    hooks.run(i, false);
    ++i;
  } while (seconds_between(begin, Clock::now()) < kWarmupSeconds);
}

std::vector<PassTiming> timed_passes(double seconds, bool alternate,
                                     const PassHooks& hooks) {
  std::vector<PassTiming> passes;
  double measured = 0.0;
  for (std::size_t i = 0; measured < seconds || passes.size() < kMinPasses ||
                          (alternate && passes.size() % 2 == 1);
       ++i) {
    const bool traced = alternate && i % 2 == 1;
    if (hooks.prepare) hooks.prepare(i);
    const double cpu_begin = cpu_seconds();
    const auto begin = Clock::now();
    const std::uint64_t units = hooks.run(i, traced);
    const auto end = Clock::now();
    const double cpu_end = cpu_seconds();
    passes.push_back(
        {seconds_between(begin, end), cpu_end - cpu_begin, units, traced});
    measured += passes.back().wall_s;
    if (hooks.check) hooks.check(i);
  }
  return passes;
}

std::uint64_t total_units(const std::vector<PassTiming>& passes) {
  std::uint64_t units = 0;
  for (const PassTiming& pass : passes) units += pass.units;
  return units;
}

void add_end_to_end(Result& result, const std::vector<PassTiming>& passes,
                    double setup_s, double peak_rss) {
  std::vector<double> rate;
  std::vector<double> cpu_us;
  for (const PassTiming& pass : passes) {
    if (pass.traced || pass.units == 0 || pass.wall_s <= 0.0) continue;
    const auto units = static_cast<double>(pass.units);
    rate.push_back(units / pass.wall_s);
    cpu_us.push_back(pass.cpu_s * 1e6 / units);
  }
  result.values["units_per_s"] = median(rate);
  result.values["cpu_us_per_unit"] = median(cpu_us);
  result.values["peak_rss_mb"] = peak_rss;
  result.values["setup_s"] = setup_s;
  std::sort(rate.begin(), rate.end());
  char line[160];
  std::snprintf(line, sizeof line,
                "units_per_s per pass: min %.6g, median %.6g, max %.6g",
                rate.empty() ? 0.0 : rate.front(), median(rate),
                rate.empty() ? 0.0 : rate.back());
  std::string text = line;
  // The slow tail: the rate of the pass with ten slower passes.
  if (rate.size() > 10) {
    std::snprintf(line, sizeof line, ", 11th slowest %.6g", rate[10]);
    text += line;
  }
  result.report.push_back(text + " (" + std::to_string(rate.size()) +
                          " passes)");
}

void add_trace_overhead(Result& result,
                        const std::vector<PassTiming>& passes) {
  std::vector<double> plain;
  std::vector<double> traced;
  for (const PassTiming& pass : passes) {
    if (pass.units == 0 || pass.wall_s <= 0.0) continue;
    (pass.traced ? traced : plain)
        .push_back(static_cast<double>(pass.units) / pass.wall_s);
  }
  const double base = median(plain);
  const double with_spans = median(traced);
  result.values["trace.untraced_units_per_s"] = base;
  result.values["trace.traced_units_per_s"] = with_spans;
  result.values["trace.overhead_pct"] =
      base > 0.0 ? (base - with_spans) / base * 100.0 : 0.0;
  char line[200];
  std::snprintf(line, sizeof line,
                "tracing overhead: %.6g units/s traced vs %.6g untraced "
                "(%.2f %%; medians of %zu and %zu passes)",
                with_spans, base, result.values["trace.overhead_pct"],
                traced.size(), plain.size());
  result.report.emplace_back(line);
}

SpanTable::SpanTable(const Tracer& tracer) {
  std::vector<std::string> names;
  const auto name_of = [&](Tracer::Id id) -> const std::string& {
    while (names.size() <= id) {
      names.push_back(tracer.name(static_cast<Tracer::Id>(names.size())));
    }
    return names[id];
  };
  for (const Tracer::Span& span : tracer.spans()) {
    durations_ns[name_of(span.id)].push_back(
        static_cast<double>(span.dur_ns));
  }
  for (const Tracer::Sample& sample : tracer.samples()) {
    samples[name_of(sample.id)].push_back(sample.value);
  }
}

double SpanTable::total_ns(const std::string& name) const {
  const auto it = durations_ns.find(name);
  if (it == durations_ns.end()) return 0.0;
  double total = 0.0;
  for (const double d : it->second) total += d;
  return total;
}

double SpanTable::total_ns_prefix(const std::string& prefix) const {
  double total = 0.0;
  for (auto it = durations_ns.lower_bound(prefix);
       it != durations_ns.end() && it->first.compare(0, prefix.size(),
                                                     prefix) == 0;
       ++it) {
    total += total_ns(it->first);
  }
  return total;
}

double SpanTable::median_ns(const std::string& name) const {
  const auto it = durations_ns.find(name);
  return it == durations_ns.end() ? 0.0 : median(it->second);
}

double SpanTable::median_sample(const std::string& name) const {
  const auto it = samples.find(name);
  return it == samples.end() ? 0.0 : median(it->second);
}

double SpanTable::mean_sample(const std::string& name) const {
  const auto it = samples.find(name);
  if (it == samples.end() || it->second.empty()) return 0.0;
  double total = 0.0;
  for (const double v : it->second) total += v;
  return total / static_cast<double>(it->second.size());
}

std::size_t SpanTable::count(const std::string& name) const {
  const auto it = durations_ns.find(name);
  return it == durations_ns.end() ? 0 : it->second.size();
}

void add_attribution(
    Result& result, double capacity_ns,
    const std::vector<std::pair<std::string, double>>& layers) {
  char line[160];
  std::snprintf(line, sizeof line,
                "attribution over traced wall x threads = %.3f ms:",
                capacity_ns / 1e6);
  result.report.emplace_back(line);
  double attributed = 0.0;
  for (const auto& [layer, ns] : layers) {
    attributed += ns;
    std::snprintf(line, sizeof line, "  %-28s %12.3f ms  %6.2f %%",
                  layer.c_str(), ns / 1e6,
                  capacity_ns > 0.0 ? ns / capacity_ns * 100.0 : 0.0);
    result.report.emplace_back(line);
  }
  const double rest = capacity_ns - attributed;
  const double rest_pct = capacity_ns > 0.0 ? rest / capacity_ns * 100.0 : 0.0;
  std::snprintf(line, sizeof line, "  %-28s %12.3f ms  %6.2f %%",
                "unattributed", rest / 1e6, rest_pct);
  result.report.emplace_back(line);
  result.values["attrib.unattributed_pct"] = rest_pct;
}

bool is_lab_workload(const std::string& workload) {
  return workload == "paper_tables" || workload == "campaigns_journaled";
}

}  // namespace perfbench
