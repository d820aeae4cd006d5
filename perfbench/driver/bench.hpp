// Shared pieces of the benchmark driver: options, metric names, the
// correctness ledger, pass timing and the result every workload returns.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Where manifests, journals and the span file go.
  std::string out_dir = ".bench_build/perfbench-out";
  /// Self-test aid: corrupt the expected grid digest, which must surface as
  /// a failed operation rather than a crash.
  bool wrong_digest = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported with --trace 0 and with --trace 1 respectively.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Correctness ledger: every check is one attempted operation; a failed
/// check counts `failed_ops` failed operations (a sweep check with three
/// failed units counts three).
class Checks {
 public:
  void record(const std::string& name, bool ok, std::uint64_t failed_ops = 1);
  std::uint64_t evaluated() const { return evaluated_; }
  std::uint64_t failed_ops() const { return failed_ops_; }
  bool all_ok() const;
  /// One "check PASS|FAIL <name> (ok/total)" line per check name.
  std::vector<std::string> lines() const;

 private:
  struct Tally {
    std::string name;
    std::uint64_t ok = 0;
    std::uint64_t bad = 0;
  };
  std::vector<Tally> tallies_;
  std::uint64_t evaluated_ = 0;
  std::uint64_t failed_ops_ = 0;
};

struct Result {
  std::uint64_t units = 0;  ///< timed units over all measured passes
  Checks checks;
  std::map<std::string, double> values;  ///< metric name -> value
  std::vector<std::string> report;       ///< human-readable lines
};

/// One measured pass.
struct PassTiming {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t units = 0;
  bool traced = false;
};

/// A workload's pass, split so that only `run` is timed.
struct PassHooks {
  /// Untimed preparation of pass i (scenario generation).  May be empty.
  std::function<void(std::size_t)> prepare;
  /// The timed work of pass i; returns the units it completed.
  std::function<std::uint64_t(std::size_t, bool traced)> run;
  /// Untimed correctness checks of pass i.  May be empty.
  std::function<void(std::size_t)> check;
};

double median(std::vector<double> values);
double seconds_between(Clock::time_point begin, Clock::time_point end);
/// User + system CPU time of the whole process.
double cpu_seconds();
double peak_rss_mib();

/// The seed of pass `pass`: consecutive seeds from a base derived from the
/// workload seed and a per-workload stream tag.
std::uint64_t pass_seed(std::uint64_t workload_seed, std::uint64_t stream,
                        std::size_t pass);

/// With tracing on, passes alternate untraced / traced in pairs that share
/// a seed; this maps a pass index to its seed index.
std::size_t seed_index(std::size_t pass, bool trace);

/// Runs discarded passes for at least a second (and at least one pass), so
/// caches, allocators and lazy set-up settle before timing.
void warm_up(const PassHooks& hooks);

/// Runs measured passes until `seconds` of timed work (and at least three
/// passes) are done.  With `alternate`, odd passes are traced.
std::vector<PassTiming> timed_passes(double seconds, bool alternate,
                                     const PassHooks& hooks);

std::uint64_t total_units(const std::vector<PassTiming>& passes);

/// units_per_s and cpu_us_per_unit as medians over the untraced passes,
/// plus peak RSS and set-up time.
void add_end_to_end(Result& result, const std::vector<PassTiming>& passes,
                    double setup_s, double peak_rss);

/// traced vs untraced units_per_s and the overhead between them.
void add_trace_overhead(Result& result, const std::vector<PassTiming>& passes);

/// Per-name durations (ns) and samples gathered from a tracer.
struct SpanTable {
  std::map<std::string, std::vector<double>> durations_ns;
  std::map<std::string, std::vector<double>> samples;

  explicit SpanTable(const Tracer& tracer);
  double total_ns(const std::string& name) const;
  /// Sum over every name starting with `prefix`.
  double total_ns_prefix(const std::string& prefix) const;
  double median_ns(const std::string& name) const;
  double median_sample(const std::string& name) const;
  double mean_sample(const std::string& name) const;
  std::size_t count(const std::string& name) const;
};

/// Adds the attribution lines (each layer's share of traced capacity,
/// unattributed time on its own line) and lab.unattributed_pct.
void add_attribution(Result& result, double capacity_ns,
                     const std::vector<std::pair<std::string, double>>& layers);

bool is_lab_workload(const std::string& workload);
std::string lab_plan(const Options& options);
Result run_lab(const Options& options);
std::string grid_plan(const Options& options);
Result run_grid(const Options& options);

}  // namespace perfbench
