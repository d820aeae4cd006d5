// Ablation: how much of the trust-aware gain is *cheaper security*
// (TC-priced vs blanket) and how much is *smarter placement*?
//
// Four policies on identical instances:
//   unaware          decide on EEC, pay blanket 50 %   (the paper baseline)
//   unaware/tc-cost  decide on EEC, pay TC-priced      (cheaper security only)
//   aware/blanket    decide+pay blanket                (placement cannot help)
//   aware            decide+pay TC-priced              (the paper treatment)
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_ablation_security_policy",
                "Separates cheaper-security from smarter-placement gains");
  bench::add_common_flags(cli);
  cli.add_uint("tasks", 50, "tasks per replication");
  cli.parse(argc, argv);
  const auto replications =
      static_cast<std::size_t>(cli.get_uint("replications"));
  const Rng master(cli.get_uint("seed"));

  sim::Scenario scenario = bench::scenario_from_flags(cli);
  scenario.tasks = static_cast<std::size_t>(cli.get_uint("tasks"));

  const std::vector<sched::SchedulingPolicy> policies = {
      sched::trust_unaware_policy(),
      sched::unaware_placement_tc_priced_policy(),
      sched::aware_placement_blanket_priced_policy(),
      sched::trust_aware_policy()};

  TextTable table({"policy", "mean makespan", "utilization",
                   "vs unaware"});
  table.set_title("Security-policy ablation (MCT, inconsistent LoLo, " +
                  std::to_string(scenario.tasks) + " tasks, n=" +
                  std::to_string(replications) + ")");
  std::vector<RunningStats> makespans(policies.size());
  std::vector<RunningStats> utils(policies.size());
  for (std::size_t i = 0; i < replications; ++i) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const sim::SimulationResult r =
          sim::run_single(scenario, policies[p], master.stream(i));
      makespans[p].add(r.makespan);
      utils[p].add(r.utilization_pct);
    }
  }
  for (std::size_t p = 0; p < policies.size(); ++p) {
    table.add_row(
        {policies[p].name, format_grouped(makespans[p].mean(), 1),
         format_percent(utils[p].mean()),
         format_percent(
             percent_improvement(makespans[0].mean(), makespans[p].mean()))});
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: row 2 isolates the cheaper-security effect; the "
               "gap between rows 2 and 4 is the placement effect.\n";
  return 0;
}
