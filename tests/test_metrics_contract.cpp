// The metrics contract of the paper-table sweeps.  With a registry
// installed, as under `gridtrust_lab run --metrics-out`, Tables 4, 6 and 8
// (trust-aware vs trust-unaware MCT, Min-min and Sufferage) record pinned
// counters, gauges and histogram sample counts at any job count.  The
// pinned values are those of the revision that still timed every TRMS
// arrival, batch tick and MCT decision; those three histograms
// (`des.event_ns.rms_arrival`, `des.event_ns.rms_batch_tick`,
// `sched.select_machine_ns`) are the only difference and must stay gone.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::lab {
namespace {

struct PinnedMetrics {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::uint64_t> histogram_counts;
};

/// Every spec runs 2 cells x 50 replications, two TRMS runs per unit.
PinnedMetrics pinned(const std::string& spec) {
  PinnedMetrics out;
  out.counters = {{"lab.cells_run", 2},
                  {"lab.units_run", 100},
                  {"sim.trms_runs", 200},
                  {"trust.table_lookups", 94375},
                  {"trust.table_writes", 3368}};
  out.histogram_counts = {{"lab.unit_ns", 100},
                          {"sim.draw_instance_ns", 100},
                          {"sim.trms_run_ns", 200}};
  if (spec == "table4") {  // immediate mode: one event per arrival
    out.counters["des.events_executed"] = 15000;
    out.counters["des.events_scheduled"] = 15000;
    out.counters["sched.heuristic_invocations"] = 15000;
    out.gauges = {{"des.events_pending", 0}, {"des.heap_depth_max", 100}};
  } else {  // batch mode: arrivals plus 590 batch ticks
    out.counters["des.events_executed"] = 15590;
    out.counters["des.events_scheduled"] = 15590;
    out.counters["sched.batches_mapped"] = 590;
    out.gauges = {{"des.events_pending", 0}, {"des.heap_depth_max", 101}};
    out.histogram_counts["sched.batch_size"] = 590;
    out.histogram_counts["sched.map_batch_ns"] = 590;
  }
  return out;
}

class MetricsContract
    : public ::testing::TestWithParam<std::tuple<const char*, std::size_t>> {};

TEST_P(MetricsContract, MatchesThePinnedRecord) {
  const auto [name, jobs] = GetParam();
  const SweepSpec* spec = find_spec(name);
  ASSERT_NE(spec, nullptr);

  obs::MetricsRegistry registry;
  obs::install(&registry);
  EngineOptions options;
  options.jobs = jobs;
  const SweepRun run = run_sweep(*spec, options);
  obs::install(nullptr);
  ASSERT_EQ(run.manifest.outcome, RunOutcome::kComplete);

  const obs::Snapshot snap = registry.snapshot();
  const PinnedMetrics want = pinned(name);
  EXPECT_EQ(snap.counters, want.counters);
  EXPECT_EQ(snap.gauges, want.gauges);
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [metric, histogram] : snap.histograms) {
    counts[metric] = histogram.count;
  }
  EXPECT_EQ(counts, want.histogram_counts);
  for (const auto& [metric, count] : counts) {
    EXPECT_NE(metric.rfind("des.event_ns.rms_", 0), 0u) << metric;
    EXPECT_NE(metric, "sched.select_machine_ns");
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperTables, MetricsContract,
    ::testing::Combine(::testing::Values("table4", "table6", "table8"),
                       ::testing::Values(std::size_t{1}, std::size_t{2})),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param)) + "_jobs" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace gridtrust::lab
