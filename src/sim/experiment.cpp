#include "sim/experiment.hpp"

#include <string>

#include "chaos/faults.hpp"
#include "obs/metrics.hpp"
#include "sched/problem.hpp"

namespace gridtrust::sim {

namespace {

const obs::Histogram kDrawInstanceNs("sim.draw_instance_ns",
                                     obs::duration_bounds_ns());

}  // namespace

void report_arm(obs::RunReport& out, const std::string& prefix,
                const SimulationResult& run) {
  out.set(prefix + ".makespan", run.makespan);
  out.set(prefix + ".utilization_pct", run.utilization_pct);
  out.set(prefix + ".mean_flow_time", run.mean_flow_time);
  out.set(prefix + ".flow_time_p95", run.flow_time_p95);
  out.set(prefix + ".batches", static_cast<double>(run.batches));
}

Instance draw_instance(const Scenario& scenario,
                       const sched::SchedulingPolicy& policy, Rng& rng) {
  obs::ScopedTimer timer(kDrawInstanceNs);
  grid::GridSystem grid = grid::make_random_grid(scenario.grid, rng);
  trust::TrustLevelTable table =
      workload::random_trust_table(grid, rng, scenario.table_correlation);
  std::vector<grid::Request> requests =
      workload::generate_requests(grid, scenario.tasks, scenario.requests, rng);
  const sched::SecurityCostModel model(scenario.security);
  sched::TrustCostMatrix tc =
      sched::compute_trust_costs(grid, requests, table, model);
  sched::CostMatrix eec = workload::generate_eec(
      scenario.tasks, grid.machines().size(), scenario.heterogeneity, rng);
  std::vector<double> arrivals;
  arrivals.reserve(requests.size());
  for (const grid::Request& r : requests) arrivals.push_back(r.arrival_time);
  chaos::FaultApplication faults;
  if (!scenario.chaos.faults.empty()) {
    // Machine faults sampled at each request's arrival time perturb the
    // drawn costs; the empty-config case never reaches this branch, keeping
    // clean instances bit-identical to pre-chaos draws.
    const chaos::FaultTimeline timeline(scenario.chaos.faults);
    faults = chaos::apply_machine_faults(timeline, arrivals, eec,
                                         scenario.chaos.crash_penalty);
  }
  sched::SchedulingProblem problem(std::move(eec), std::move(tc), policy,
                                   model, std::move(arrivals));
  return Instance{std::move(grid), std::move(table), std::move(requests),
                  std::move(problem), faults};
}

obs::RunReport run_paired(const Scenario& scenario, std::uint64_t rep_seed) {
  // Both policies see the identical instance: one stream, one draw.
  Rng rng(rep_seed);
  const Instance instance =
      draw_instance(scenario, sched::trust_unaware_policy(), rng);
  const SimulationResult unaware = run_trms(instance.problem, scenario.rms);
  const SimulationResult aware = run_trms(
      instance.problem.with_policy(sched::trust_aware_policy()), scenario.rms);
  obs::RunReport report;
  report_arm(report, "unaware", unaware);
  report_arm(report, "aware", aware);
  // The paired difference: its aggregate ci95 is the common-random-numbers
  // confidence interval of the makespan gain.
  report.set("makespan_diff", unaware.makespan - aware.makespan);
  if (!scenario.chaos.empty()) {
    chaos::ChaosCounters counters;
    counters.faults_injected = instance.faults.windows_applied;
    counters.to_report(report);
  }
  return report;
}

}  // namespace gridtrust::sim
