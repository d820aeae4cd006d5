#include "support.hpp"

#include <fstream>
#include <iostream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "lab/catalog.hpp"
#include "lab/render.hpp"
#include "obs/export.hpp"
#include "workload/heterogeneity.hpp"

namespace gridtrust::bench {

void add_common_flags(CliParser& cli) {
  cli.add_int("replications", 50, "independent simulation replications");
  cli.add_int("seed", 20020815, "master random seed");
  cli.add_int("machines", 5, "machines in the Grid (paper: 5)");
  cli.add_int("tasks-a", 50, "first task count (paper: 50)");
  cli.add_int("tasks-b", 100, "second task count (paper: 100)");
  cli.add_double("arrival-rate", 1.0, "Poisson arrival rate (requests/s)");
  cli.add_double("batch-interval", 30.0, "meta-request interval (s)");
  cli.add_double("tc-weight", 15.0, "ESC percent per trust-cost unit");
  cli.add_double("blanket", 50.0, "trust-unaware blanket ESC percent");
  cli.add_flag("forced-f", "use the strict Table 1 reading (RTL=F -> TC=6)");
  cli.add_flag("iid-table", "independent per-activity trust table entries");
  cli.add_flag("csv", "emit CSV rows instead of the ASCII table");
  obs::add_metrics_flags(cli);
}

sim::ScenarioBuilder builder_from_flags(const CliParser& cli) {
  return sim::ScenarioBuilder()
      .machines(static_cast<std::size_t>(cli.get_int("machines")))
      .arrival_rate(cli.get_double("arrival-rate"))
      .tc_weight_pct(cli.get_double("tc-weight"))
      .blanket_pct(cli.get_double("blanket"))
      .forced_f(cli.get_flag("forced-f"))
      .table_correlation(
          cli.get_flag("iid-table")
              ? workload::TableCorrelation::kIndependentPerActivity
              : workload::TableCorrelation::kPairLevel);
}

sim::Scenario scenario_from_flags(const CliParser& cli) {
  return builder_from_flags(cli).build();
}

void add_lab_flags(CliParser& cli) {
  cli.add_uint("replications", 0,
               "replication-count override (0 = the spec's own)");
  cli.add_uint("seed", 20020815, "master seed override");
  cli.add_uint("jobs", 0,
               "worker threads (0 = shared hardware-sized pool, 1 = serial; "
               "results are identical for every value)");
  cli.add_string("cache-dir", "", "result-cache directory (empty = off)");
  cli.add_string("out", "", "write the sweep manifest to this path");
  cli.add_flag("csv", "emit CSV rows instead of the ASCII table");
  obs::add_metrics_flags(cli);
}

lab::EngineOptions engine_options_from_flags(const CliParser& cli) {
  lab::EngineOptions options;
  options.jobs = static_cast<std::size_t>(cli.get_uint("jobs"));
  if (cli.was_set("seed")) options.seed = cli.get_uint("seed");
  if (cli.get_uint("replications") > 0) {
    options.replications =
        static_cast<std::size_t>(cli.get_uint("replications"));
  }
  options.cache_dir = cli.get_string("cache-dir");
  return options;
}

lab::SweepRun run_catalog_spec(const CliParser& cli,
                               const std::string& spec_name,
                               bool paper_layout) {
  const lab::SweepSpec* spec = lab::find_spec(spec_name);
  GT_REQUIRE(spec != nullptr, "unregistered catalog spec: " + spec_name);
  obs::MetricsExportScope metrics(cli);
  const lab::SweepRun run =
      lab::run_sweep(*spec, engine_options_from_flags(cli));

  const TextTable table =
      paper_layout ? lab::paper_schedule_table(spec->title, run.manifest)
                   : lab::sweep_table(*spec, run.manifest);
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  for (const std::string& line : lab::paired_summaries(run.manifest)) {
    std::cout << "  " << line << "\n";
  }
  std::cout << "  expected: " << spec->expected << "\n"
            << "  " << run.cells << " cells, " << run.units_run
            << " units run, " << run.cache_hits << " cache hits, "
            << format_grouped(run.wall_seconds, 2) << " s wall"
            << " (rerun with `gridtrust_lab run " << spec_name << "`)\n";

  const std::string out_path = cli.get_string("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    GT_REQUIRE(static_cast<bool>(out), "cannot write: " + out_path);
    out << lab::to_json(run.manifest);
    std::cout << "  manifest: " << out_path << "\n";
  }
  return run;
}

int run_paper_table_spec(const CliParser& cli, const std::string& spec_name) {
  run_catalog_spec(cli, spec_name, /*paper_layout=*/true);
  std::cout << "  (absolute seconds depend on the EEC ranges; the paper's "
               "testbed is unknown -- compare shapes, see "
               "docs/experiments-catalog.md)\n";
  return 0;
}

}  // namespace gridtrust::bench
