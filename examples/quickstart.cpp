// Quickstart: build a random Grid, generate a workload, and compare a
// trust-aware MCT scheduler against the trust-unaware baseline on the lab
// sweep engine.
//
//   $ ./quickstart [--tasks=50] [--seed=1] [--json]
#include <iostream>

#include "common/cli.hpp"
#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/render.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_builder.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("quickstart", "Minimal gridtrust end-to-end run");
  cli.add_uint("tasks", 50, "requests to schedule");
  cli.add_uint("seed", 1, "random seed");
  cli.add_flag("json", "emit the sweep's manifest as JSON instead");
  cli.parse(argc, argv);

  // 1. Describe the experiment: a 5-machine Grid with 1-4 client/resource
  //    domains, inconsistent LoLo heterogeneity, Poisson arrivals, and the
  //    paper's ESC pricing (TC x 15 % when aware, 50 % blanket otherwise).
  //    Everything but the task count is the validated builder default.
  const sim::Scenario scenario =
      sim::ScenarioBuilder()
          .tasks(static_cast<std::size_t>(cli.get_uint("tasks")))
          .machines(5)
          .heuristic("mct")
          .immediate()
          .inconsistent()
          .arrival_rate(1.0)
          .build();

  // 2. Declare a one-cell sweep of paired replications: each one draws an
  //    instance and schedules it twice (trust-unaware, then trust-aware);
  //    lab::finalize_paired adds the improvement and its significance.
  lab::SweepSpec spec;
  spec.name = "quickstart";
  spec.title = "Quickstart: mct, inconsistent LoLo, trust-aware vs "
               "trust-unaware";
  spec.axes = {{"tasks", {static_cast<double>(scenario.tasks)}}};
  spec.replications = 30;
  spec.seed = cli.get_uint("seed");
  spec.run = [scenario](const lab::Cell&, std::uint64_t rep_seed) {
    return sim::run_paired(scenario, rep_seed);
  };
  spec.finalize = lab::finalize_paired;

  // 3. Run it on the lab engine, which seeds every replication from
  //    (seed, cell parameters, replication index).
  const lab::SweepRun run = lab::run_sweep(spec);

  // 4. Report.  Machine consumers take the manifest; humans get the
  //    paper's table layout and the paired-CI summary.
  if (cli.get_flag("json")) {
    std::cout << lab::to_json(run.manifest);
    return 0;
  }
  std::cout << lab::paper_schedule_table(spec.title, run.manifest);
  for (const std::string& line : lab::paired_summaries(run.manifest)) {
    std::cout << "  " << line << "\n";
  }
  return 0;
}
