// Figure-style series: the trust-aware advantage as a function of trust
// diversity (number of resource domains over a fixed 5-machine pool).
// With one RD there is no trust-based placement freedom at all; with one RD
// per machine there is the most.  Complements Tables 4-9, which draw
// #RD ~ U[1,4].
#include <iostream>

#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_diversity",
                "Improvement vs number of resource domains (5 machines)");
  bench::add_common_flags(cli);
  cli.add_uint("tasks", 50, "tasks per replication");
  cli.parse(argc, argv);

  sim::Scenario base = bench::scenario_from_flags(cli);
  base.tasks = static_cast<std::size_t>(cli.get_uint("tasks"));
  const lab::SweepRun run = lab::run_sweep(bench::paired_spec(
      cli, "diversity", {{"resource_domains", {1, 2, 3, 4, 5}}},
      [base](const lab::Cell& cell) {
        const auto rds =
            static_cast<std::size_t>(cell.number("resource_domains"));
        sim::Scenario scenario = base;
        scenario.grid.min_resource_domains = rds;
        scenario.grid.max_resource_domains = rds;
        return scenario;
      }));

  TextTable table({"resource domains", "unaware makespan", "aware makespan",
                   "improvement", "95% CI"});
  table.set_title("Trust diversity series (MCT, inconsistent LoLo, " +
                  std::to_string(base.tasks) + " tasks)");
  for (const lab::ManifestCell& cell : run.manifest.cells) {
    const double rds = cell.params.front().second.number();
    const double unaware = bench::metric(cell, "unaware.makespan").mean;
    const double aware = bench::metric(cell, "aware.makespan").mean;
    const double rel_ci =
        bench::metric(cell, "makespan_diff").ci95 / unaware * 100.0;
    table.add_row({format_grouped(rds, 0), format_grouped(unaware, 1),
                   format_grouped(aware, 1),
                   format_percent(bench::metric(cell, "improvement_pct").mean),
                   "+/- " + format_percent(rel_ci)});
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: the series is remarkably flat — under LoLo "
               "heterogeneity the aware advantage is dominated by the "
               "pricing gap (TC-priced vs blanket) and by consistent "
               "decision units, not by trust-based placement freedom "
               "(cf. bench_ablation_security_policy, where the placement "
               "term adds only ~3 points).  Trust diversity is about *risk* "
               "placement (see bench_closed_loop), not about makespan.\n";
  return 0;
}
