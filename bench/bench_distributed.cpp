// Extension bench: what is the paper's central-scheduler assumption worth?
// Per-domain schedulers with periodically synchronized views of machine
// availability vs the central RMS, across sync intervals.
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "support.hpp"
#include "sim/distributed.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_distributed",
                "Central vs per-domain schedulers with stale views");
  bench::add_common_flags(cli);
  cli.add_uint("tasks", 100, "tasks per replication");
  cli.parse(argc, argv);
  const auto replications =
      static_cast<std::size_t>(cli.get_uint("replications"));
  const Rng master(cli.get_uint("seed"));

  TextTable table({"scheduler", "sync interval (s)", "makespan",
                   "vs central", "mean decision error (s)"});
  table.set_title("Central vs distributed trust-aware MCT (" +
                  std::to_string(cli.get_uint("tasks")) + " tasks)");

  // The same scenario is redrawn per arm from per-replication RNG streams
  // (common random numbers across all arms).
  const auto build = [&] {
    sim::Scenario scenario = bench::scenario_from_flags(cli);
    scenario.tasks = static_cast<std::size_t>(cli.get_uint("tasks"));
    return scenario;
  };

  RunningStats central_mk;
  std::map<double, RunningStats> dist_mk;
  std::map<double, RunningStats> dist_err;
  const std::vector<double> intervals = {5.0, 30.0, 120.0, 0.0};  // 0 = never
  for (std::size_t i = 0; i < replications; ++i) {
    const sim::Scenario scenario = build();
    const sim::SimulationResult central = sim::run_single(
        scenario, sched::trust_aware_policy(), master.stream(i));
    central_mk.add(central.makespan);
    for (const double interval : intervals) {
      // Rebuild the identical instance, then hand each request to its
      // originating client domain's scheduler.
      Rng rng = master.stream(i);
      const sim::Instance instance =
          sim::draw_instance(scenario, sched::trust_aware_policy(), rng);
      std::vector<grid::ClientDomainId> owner;
      owner.reserve(instance.requests.size());
      for (const auto& r : instance.requests) owner.push_back(r.client_domain);
      sim::DistributedConfig config;
      config.sync_interval = interval;
      const sim::DistributedResult result =
          sim::run_distributed(instance.problem, owner, config);
      dist_mk[interval].add(result.makespan);
      dist_err[interval].add(result.mean_decision_error);
    }
  }

  table.add_row({"central", "-", format_grouped(central_mk.mean(), 1),
                 "0.00%", "0.0"});
  for (const double interval : intervals) {
    table.add_row(
        {"distributed", interval > 0.0 ? format_grouped(interval, 0) : "never",
         format_grouped(dist_mk[interval].mean(), 1),
         format_percent(percent_improvement(central_mk.mean(),
                                            dist_mk[interval].mean()) *
                        -1.0),
         format_grouped(dist_err[interval].mean(), 1)});
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout
      << "\nreading: fast sync approaches the central scheduler, but "
         "*moderate* sync is the worst of all — right after each sync every "
         "domain sees the same 'least loaded' machines and herds onto them "
         "(the classic stale-load-information pathology).  Never syncing "
         "avoids the herd because each domain balances its own stream "
         "independently, at the cost of completely wrong completion "
         "estimates (see the decision-error column).  A centrally "
         "organized TRMS — the paper's assumption (a) — sidesteps all of "
         "this.\n";
  return 0;
}
