// Figure-style 2-D surface: improvement as a function of the two ESC
// pricing constants the paper fixes by fiat (TC weight 15 %, blanket 50 %).
// Emits a grid suitable for contour plotting; the zero-crossing line shows
// exactly where trust awareness stops paying.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_surface",
                "Improvement surface over (TC weight, blanket rate)");
  bench::add_common_flags(cli);
  cli.add_uint("tasks", 50, "tasks per replication");
  cli.parse(argc, argv);

  const lab::Axis weights{"tc_weight", {0, 5, 10, 15, 20, 30}};
  const lab::Axis blankets{"blanket", {10, 25, 50, 75, 100}};
  sim::Scenario base = bench::scenario_from_flags(cli);
  base.tasks = static_cast<std::size_t>(cli.get_uint("tasks"));
  const lab::SweepRun run = lab::run_sweep(bench::paired_spec(
      cli, "surface", {weights, blankets}, [base](const lab::Cell& cell) {
        sim::Scenario scenario = base;
        scenario.security.tc_weight_pct = cell.number("tc_weight");
        scenario.security.blanket_pct = cell.number("blanket");
        return scenario;
      }));

  std::vector<std::string> headers{"TC weight \\ blanket"};
  for (const lab::ParamValue& b : blankets.values) {
    headers.push_back(format_grouped(b.number(), 0) + "%");
  }
  TextTable table(std::move(headers));
  table.set_title(
      "Improvement surface (MCT, inconsistent LoLo; paper point: weight 15, "
      "blanket 50)");
  // Cells run row-major, blanket fastest: one table row per TC weight.
  const std::vector<lab::ManifestCell>& cells = run.manifest.cells;
  for (std::size_t w = 0; w < weights.values.size(); ++w) {
    std::vector<std::string> row{
        format_grouped(weights.values[w].number(), 0) + "%"};
    for (std::size_t b = 0; b < blankets.values.size(); ++b) {
      const lab::ManifestCell& cell = cells[w * blankets.values.size() + b];
      row.push_back(
          format_percent(bench::metric(cell, "improvement_pct").mean));
    }
    table.add_row(std::move(row));
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: trust awareness pays whenever typical TC pricing "
               "undercuts the blanket rate; the diagonal where "
               "weight x E[TC] ~ blanket is the break-even ridge.\n";
  return 0;
}
