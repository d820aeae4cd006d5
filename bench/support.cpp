#include "support.hpp"

#include <iostream>
#include <utility>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/table.hpp"
#include "lab/catalog.hpp"
#include "lab/render.hpp"
#include "obs/export.hpp"
#include "sim/scenario_builder.hpp"
#include "workload/heterogeneity.hpp"

namespace gridtrust::bench {

void add_common_flags(CliParser& cli) {
  cli.add_uint("replications", 50, "independent simulation replications");
  cli.add_uint("seed", 20020815, "master random seed");
  cli.add_uint("machines", 5, "machines in the Grid (paper: 5)");
  cli.add_double("arrival-rate", 1.0, "Poisson arrival rate (requests/s)");
  cli.add_double("tc-weight", 15.0, "ESC percent per trust-cost unit");
  cli.add_double("blanket", 50.0, "trust-unaware blanket ESC percent");
  cli.add_flag("forced-f", "use the strict Table 1 reading (RTL=F -> TC=6)");
  cli.add_flag("iid-table", "independent per-activity trust table entries");
  cli.add_flag("csv", "emit CSV rows instead of the ASCII table");
}

sim::Scenario scenario_from_flags(const CliParser& cli) {
  return sim::ScenarioBuilder()
      .machines(static_cast<std::size_t>(cli.get_uint("machines")))
      .arrival_rate(cli.get_double("arrival-rate"))
      .tc_weight_pct(cli.get_double("tc-weight"))
      .blanket_pct(cli.get_double("blanket"))
      .forced_f(cli.get_flag("forced-f"))
      .table_correlation(
          cli.get_flag("iid-table")
              ? workload::TableCorrelation::kIndependentPerActivity
              : workload::TableCorrelation::kPairLevel)
      .build();
}

lab::SweepSpec paired_spec(
    const CliParser& cli, std::string name, std::vector<lab::Axis> axes,
    std::function<sim::Scenario(const lab::Cell&)> scenario) {
  lab::SweepSpec spec;
  spec.name = std::move(name);
  spec.axes = std::move(axes);
  spec.replications = static_cast<std::size_t>(cli.get_uint("replications"));
  spec.seed = cli.get_uint("seed");
  spec.run = [scenario = std::move(scenario)](const lab::Cell& cell,
                                              std::uint64_t rep_seed) {
    return sim::run_paired(scenario(cell), rep_seed);
  };
  spec.finalize = lab::finalize_paired;
  return spec;
}

const lab::MetricAggregate& metric(const lab::ManifestCell& cell,
                                   const std::string& name) {
  for (const auto& [key, aggregate] : cell.metrics) {
    if (key == name) return aggregate;
  }
  throw PreconditionError("cell " + std::to_string(cell.index) +
                          " lacks metric " + name);
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
                               const std::string& spec_name) {
  const lab::SweepSpec* spec = lab::find_spec(spec_name);
  GT_REQUIRE(spec != nullptr, "unregistered catalog spec: " + spec_name);
  obs::MetricsExportScope metrics(cli);
  const lab::SweepRun run =
      lab::run_sweep(*spec, engine_options_from_flags(cli));

  const TextTable table = lab::sweep_table(*spec, run.manifest);
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
    atomic_write_file(out_path, lab::to_json(run.manifest));
    std::cout << "  manifest: " << out_path << "\n";
  }
  return run;
}

}  // namespace gridtrust::bench
