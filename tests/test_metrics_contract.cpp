// The metrics contract of the paper-table and campaign sweeps.  With a
// registry installed, as under `gridtrust_lab run --metrics-out`, Tables 4,
// 6 and 8 (trust-aware vs trust-unaware MCT, Min-min and Sufferage) and the
// campaign smoke specs (`smoke_backends`: chaos campaigns on the round
// loop; `smoke_econ`: market campaigns) record pinned counters, gauges and
// histogram sample counts at any job count.  The paper-table values are
// those of the revision that still timed every TRMS arrival, batch tick and
// MCT decision; those three histograms (`des.event_ns.rms_arrival`,
// `des.event_ns.rms_batch_tick`, `sched.select_machine_ns`) must stay gone.
// TRMS runs no longer run on the DES kernel: their arrivals and batch ticks
// count in `sim.trms_events`, and `des.*` counts kernel events only, so the
// paper tables publish no `des.*` metric.
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

/// The campaign smoke specs: smoke_backends runs 2 cells x 2 replications
/// of 8-round chaos campaigns, smoke_econ 4 cells x 2 replications of
/// 6-round market campaigns.
PinnedMetrics pinned_campaign(const std::string& spec) {
  PinnedMetrics out;
  if (spec == "smoke_backends") {
    // des.events_executed and des.events_scheduled were 672 while each
    // round's TRMS run stepped its 20 arrivals through the kernel; the
    // kernel now runs the 32 round events and sim.trms_events counts the
    // 640 arrivals.
    out.counters = {{"chaos.campaign_rounds", 32},
                    {"chaos.recommendations_forged", 543},
                    {"des.events_executed", 32},
                    {"des.events_scheduled", 32},
                    {"lab.cells_run", 2},
                    {"lab.units_run", 4},
                    {"sched.heuristic_invocations", 640},
                    {"sim.trms_events", 640},
                    {"sim.trms_runs", 32},
                    {"trust.decay_applications", 17316},
                    {"trust.gamma_evals", 4010},
                    {"trust.reputation_records_scanned", 11441},
                    {"trust.reputation_scans", 4010},
                    // 20983 before the round loop read the scheduler's
                    // table once more per placement for residual exposure.
                    {"trust.table_lookups", 22610},
                    {"trust.table_writes", 959},
                    {"trust.transactions", 2958}};
    // des.heap_depth_max was 20 while each round's TRMS run scheduled
    // every arrival up front; the round loop's own events keep it at 8.
    out.gauges = {{"des.events_pending", 0},
                  {"des.heap_depth_max", 8},
                  {"trust.direct_records", 274}};
    out.histogram_counts = {{"des.event_ns.chaos_round", 32},
                            {"lab.unit_ns", 4},
                            {"sim.trms_run_ns", 32}};
  } else {  // smoke_econ
    out.counters = {{"chaos.outcomes_flipped", 298},
                    {"chaos.recommendations_forged", 292},
                    {"des.events_executed", 48},
                    {"des.events_scheduled", 48},
                    {"econ.market_rounds", 48},
                    {"econ.rejected_budget", 32},
                    {"econ.rejected_deadline", 21},
                    {"econ.served", 715},
                    {"lab.cells_run", 4},
                    {"lab.units_run", 8},
                    {"trust.decay_applications", 12650},
                    {"trust.gamma_evals", 3268},
                    {"trust.reputation_records_scanned", 7560},
                    {"trust.reputation_scans", 3268},
                    {"trust.table_lookups", 27104},
                    {"trust.table_writes", 1373},
                    {"trust.transactions", 3604}};
    out.gauges = {{"des.events_pending", 0},
                  {"des.heap_depth_max", 6},
                  {"trust.direct_records", 242}};
    out.histogram_counts = {{"des.event_ns.econ_round", 48},
                            {"lab.unit_ns", 8}};
  }
  return out;
}

/// Every paper-table spec runs 2 cells x 50 replications, two TRMS runs
/// per unit.
PinnedMetrics pinned(const std::string& spec) {
  if (spec.rfind("smoke_", 0) == 0) return pinned_campaign(spec);
  PinnedMetrics out;
  out.counters = {{"lab.cells_run", 2},
                  {"lab.units_run", 100},
                  {"sim.trms_runs", 200},
                  {"trust.table_lookups", 94375},
                  {"trust.table_writes", 3368}};
  out.histogram_counts = {{"lab.unit_ns", 100},
                          {"sim.draw_instance_ns", 100},
                          {"sim.trms_run_ns", 200}};
  // run_trms walks its arrivals and batch ticks in a next-event loop, with
  // no kernel.  The same counts were des.events_executed and
  // des.events_scheduled (15000 for table4, 15590 for the batch tables),
  // with des.events_pending 0 and des.heap_depth_max 1 (100 and 101 while
  // every arrival was scheduled up front).
  if (spec == "table4") {  // immediate mode: one event per arrival
    out.counters["sched.heuristic_invocations"] = 15000;
    out.counters["sim.trms_events"] = 15000;
  } else {  // batch mode: arrivals plus 590 batch ticks
    out.counters["sched.batches_mapped"] = 590;
    out.counters["sim.trms_events"] = 15590;
    out.histogram_counts["sched.batch_size"] = 590;
    out.histogram_counts["sched.map_batch_ns"] = 590;
  }
  return out;
}

/// The spec name is a std::string, not a const char*: gtest prints a
/// pointer parameter as its address, which would put a per-process address
/// into every discovered test name.
using ContractParam = std::tuple<std::string, std::size_t>;

class MetricsContract : public ::testing::TestWithParam<ContractParam> {};

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

/// "table4_jobs1", "smoke_econ_jobs2", ...
std::string param_name(const ::testing::TestParamInfo<ContractParam>& info) {
  return std::get<0>(info.param) + "_jobs" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PaperTables, MetricsContract,
    ::testing::Combine(::testing::Values(std::string("table4"),
                                         std::string("table6"),
                                         std::string("table8")),
                       ::testing::Values(std::size_t{1}, std::size_t{2})),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    Campaigns, MetricsContract,
    ::testing::Combine(::testing::Values(std::string("smoke_backends"),
                                         std::string("smoke_econ")),
                       ::testing::Values(std::size_t{1}, std::size_t{2})),
    param_name);

}  // namespace
}  // namespace gridtrust::lab
