// Extension bench: the full heuristic suite of Maheswaran et al. [10]
// (OLB, MET, MCT, KPB, SA / Min-min, Max-min, Sufferage, Duplex), trust-
// unaware vs trust-aware, across all four heterogeneity x consistency
// classes.  The paper evaluates only MCT, Min-min, and Sufferage; this
// bench shows the trust integration composes with the whole family.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "sched/heuristic.hpp"
#include "support.hpp"
#include "workload/heterogeneity.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_all_heuristics",
                "Trust-aware vs unaware across the full heuristic suite");
  bench::add_common_flags(cli);
  cli.add_uint("tasks", 50, "tasks per replication");
  cli.parse(argc, argv);

  std::vector<workload::HeterogeneityParams> classes;
  lab::Axis class_axis{"class", {}};
  for (const auto consistency :
       {workload::Consistency::kInconsistent,
        workload::Consistency::kConsistent}) {
    for (const auto task : {workload::Heterogeneity::kLow,
                            workload::Heterogeneity::kHigh}) {
      workload::HeterogeneityParams params;
      params.consistency = consistency;
      params.task = task;
      params.machine = workload::Heterogeneity::kLow;
      classes.push_back(params);
      class_axis.values.emplace_back(workload::to_string(params));
    }
  }
  // Immediate-mode heuristics first, then the batch mappers.
  const std::vector<std::string> batch = sched::batch_heuristic_names();
  lab::Axis heuristic_axis{"heuristic", {}};
  for (const std::string& name : sched::immediate_heuristic_names()) {
    heuristic_axis.values.emplace_back(name);
  }
  for (const std::string& name : batch) {
    heuristic_axis.values.emplace_back(name);
  }
  const auto is_batch = [&batch](const std::string& name) {
    return std::find(batch.begin(), batch.end(), name) != batch.end();
  };

  sim::Scenario base = bench::scenario_from_flags(cli);
  base.tasks = static_cast<std::size_t>(cli.get_uint("tasks"));
  const lab::SweepRun run = lab::run_sweep(bench::paired_spec(
      cli, "all_heuristics", {class_axis, heuristic_axis},
      [&](const lab::Cell& cell) {
        sim::Scenario scenario = base;
        for (const workload::HeterogeneityParams& klass : classes) {
          if (workload::to_string(klass) == cell.text("class")) {
            scenario.heterogeneity = klass;
          }
        }
        scenario.rms.heuristic = cell.text("heuristic");
        scenario.rms.mode = is_batch(scenario.rms.heuristic)
                                ? sim::SchedulingMode::kBatch
                                : sim::SchedulingMode::kImmediate;
        return scenario;
      }));

  TextTable table({"heuristic", "mode", "class", "unaware makespan",
                   "aware makespan", "improvement", "95% CI (diff)"});
  table.set_title(
      "Full heuristic suite, trust-unaware vs trust-aware (mean over " +
      std::to_string(run.manifest.replications) + " replications)");
  const std::size_t per_class = heuristic_axis.values.size();
  for (const lab::ManifestCell& cell : run.manifest.cells) {
    if (cell.index > 0 && cell.index % per_class == 0) table.add_separator();
    const std::string& klass = cell.params[0].second.text();
    const std::string& name = cell.params[1].second.text();
    table.add_row(
        {name, is_batch(name) ? "batch" : "immediate", klass,
         format_grouped(bench::metric(cell, "unaware.makespan").mean, 1),
         format_grouped(bench::metric(cell, "aware.makespan").mean, 1),
         format_percent(bench::metric(cell, "improvement_pct").mean),
         format_grouped(bench::metric(cell, "makespan_diff").ci95, 1)});
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  return 0;
}
