// Ablation: the two places where the paper underspecifies its model and
// DESIGN.md documents an interpretation choice —
//   (a) trust-table structure: pair-level (default) vs independent
//       per-activity entries, and
//   (b) the Table 1 row F: plain clamped difference (default) vs the strict
//       forced TC=6 reading.
#include <iostream>

#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_ablation_interpretation",
                "Impact of the DESIGN.md interpretation choices");
  bench::add_common_flags(cli);
  cli.add_uint("tasks", 50, "tasks per replication");
  cli.parse(argc, argv);

  sim::Scenario base = bench::scenario_from_flags(cli);
  base.tasks = static_cast<std::size_t>(cli.get_uint("tasks"));
  const lab::SweepRun run = lab::run_sweep(bench::paired_spec(
      cli, "ablation_interpretation",
      {{"iid_table", {0, 1}},
       {"forced_f", {0, 1}},
       {"heuristic", {"mct", "min-min", "sufferage"}}},
      [base](const lab::Cell& cell) {
        sim::Scenario scenario = base;
        scenario.table_correlation =
            cell.number("iid_table") != 0.0
                ? workload::TableCorrelation::kIndependentPerActivity
                : workload::TableCorrelation::kPairLevel;
        scenario.security.table1_forced_f = cell.number("forced_f") != 0.0;
        if (cell.text("heuristic") != "mct") {
          scenario.rms.mode = sim::SchedulingMode::kBatch;
          scenario.rms.heuristic = cell.text("heuristic");
        }
        return scenario;
      }));

  TextTable table({"trust table", "RTL=F reading", "heuristic",
                   "improvement", "aware makespan"});
  table.set_title("Model-interpretation ablation (inconsistent LoLo, " +
                  std::to_string(base.tasks) + " tasks)");
  for (const lab::ManifestCell& cell : run.manifest.cells) {
    // One group of three heuristics per (table, reading) pair.
    if (cell.index > 0 && cell.index % 3 == 0) table.add_separator();
    const bool iid = cell.params[0].second.number() != 0.0;
    const bool forced = cell.params[1].second.number() != 0.0;
    table.add_row({iid ? "iid per activity" : "pair-level",
                   forced ? "forced TC=6" : "clamped diff",
                   cell.params[2].second.text(),
                   format_percent(bench::metric(cell, "improvement_pct").mean),
                   format_grouped(bench::metric(cell, "aware.makespan").mean,
                                  1)});
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: both stricter readings lower the offered trust "
               "(or raise forced supplements) and shrink the reproduced "
               "improvement; the defaults match the paper's numbers best.\n";
  return 0;
}
