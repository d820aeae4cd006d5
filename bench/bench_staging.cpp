// Extension bench: data-staging-aware TRMS.  Requests ship input data from
// their client's domain to the executing machine over a WAN; the trust
// relationship decides whether the transfer must be secured (Tables 2-3
// pricing).  The trust-aware scheduler keeps bulk data on plain rcp inside
// trusted pairs and weighs staging in placement; the sweep shows where in
// the data-to-compute spectrum that starts to matter.
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/staging.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_staging",
                "Trust-aware vs unaware scheduling with input-data staging");
  bench::add_common_flags(cli);
  cli.add_uint("tasks", 50, "tasks per replication");
  cli.add_string("network", "100", "WAN speed between domains (100 or 1000)");
  cli.parse(argc, argv);
  const auto replications =
      static_cast<std::size_t>(cli.get_uint("replications"));
  const Rng master(cli.get_uint("seed"));

  const net::LinkProfile link = cli.get_string("network") == "1000"
                                    ? net::gigabit_ethernet_link()
                                    : net::fast_ethernet_link();
  const net::TransferModel wan(net::piii_866_host(link), link);

  TextTable table({"input data (MB)", "unaware makespan", "aware makespan",
                   "improvement", "no-staging improvement"});
  table.set_title("Data staging on a " + cli.get_string("network") +
                  " Mbps WAN (MCT, inconsistent LoLo, " +
                  std::to_string(cli.get_uint("tasks")) + " tasks)");
  struct Band {
    double lo;
    double hi;
  };
  for (const Band band : {Band{0, 0}, Band{25, 100}, Band{100, 400},
                          Band{400, 1600}, Band{1600, 4000}}) {
    RunningStats unaware_mk;
    RunningStats aware_mk;
    RunningStats plain_improvement;
    for (std::size_t i = 0; i < replications; ++i) {
      sim::Scenario scenario = bench::scenario_from_flags(cli);
      scenario.tasks = static_cast<std::size_t>(cli.get_uint("tasks"));
      Rng rng = master.stream(i);
      sim::Instance instance =
          sim::draw_instance(scenario, sched::trust_unaware_policy(), rng);
      const auto inputs = sim::draw_input_sizes(instance.requests.size(),
                                                band.lo, band.hi, rng);
      // Trust costs for the staging decision mirror the instance's.
      const sched::SecurityCostModel model(scenario.security);
      const auto tc = sched::compute_trust_costs(instance.grid,
                                                 instance.requests,
                                                 instance.table, model);
      const sim::StagingCosts staging = sim::compute_staging_costs(
          instance.grid, instance.requests, inputs, tc, wan);

      sched::SchedulingProblem unaware = instance.problem;
      sim::attach_staging(unaware, staging);
      sched::SchedulingProblem aware =
          instance.problem.with_policy(sched::trust_aware_policy());
      sim::attach_staging(aware, staging);

      const double u = sim::run_trms(unaware, scenario.rms).makespan;
      const double a = sim::run_trms(aware, scenario.rms).makespan;
      unaware_mk.add(u);
      aware_mk.add(a);
      // The no-staging reference on the identical instance.
      const double u0 =
          sim::run_trms(instance.problem, scenario.rms).makespan;
      const double a0 = sim::run_trms(
          instance.problem.with_policy(sched::trust_aware_policy()),
          scenario.rms).makespan;
      plain_improvement.add(percent_improvement(u0, a0));
    }
    table.add_row(
        {"[" + format_grouped(band.lo, 0) + ", " + format_grouped(band.hi, 0) +
             "]",
         format_grouped(unaware_mk.mean(), 1),
         format_grouped(aware_mk.mean(), 1),
         format_percent(percent_improvement(unaware_mk.mean(),
                                            aware_mk.mean())),
         format_percent(plain_improvement.mean())});
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout
      << "\nreading: at light data volumes staging is second-order and even "
         "dilutes the relative gain slightly (it inflates both arms' "
         "makespans almost equally); once transfers rival execution times "
         "(GB-scale on this WAN) the trust-adaptive rcp/scp choice and "
         "staging-aware placement pull the advantage back up.  Either way "
         "the absolute gap keeps widening with data volume — encrypting "
         "only where trust demands it is pure savings.\n";
  return 0;
}
