#include "sim/trm_simulation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "sched/executor.hpp"

namespace gridtrust::sim {

namespace {

const obs::Counter kTrmsRuns("sim.trms_runs");
const obs::Counter kTrmsEvents("sim.trms_events");
const obs::Histogram kTrmsNs("sim.trms_run_ns", obs::duration_bounds_ns());

SimulationResult finish(const sched::SchedulingProblem& problem,
                        sched::Schedule schedule, std::size_t batches,
                        std::uint64_t events) {
  GT_ASSERT(schedule.complete());
  SimulationResult out;
  out.makespan = schedule.makespan();
  out.utilization_pct = schedule.utilization_pct();
  out.mean_flow_time = schedule.mean_flow_time(problem);
  std::vector<double> flows;
  flows.reserve(problem.num_requests());
  for (std::size_t r = 0; r < problem.num_requests(); ++r) {
    flows.push_back(schedule.completion[r] - problem.arrival_time(r));
  }
  out.flow_time_p50 = percentile(flows, 50.0);
  out.flow_time_p95 = percentile(std::move(flows), 95.0);
  out.batches = batches;
  out.events = events;
  kTrmsEvents.add(static_cast<double>(events));
  out.schedule = std::move(schedule);
  return out;
}

/// Request indices in the order their arrivals run: by (arrival time,
/// index).  SchedulingProblem does not require sorted arrivals, so the
/// stable sort runs only when they are out of order.
std::vector<std::size_t> arrival_order(
    const sched::SchedulingProblem& problem) {
  std::vector<std::size_t> order(problem.num_requests());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto earlier = [&problem](std::size_t a, std::size_t b) {
    return problem.arrival_time(a) < problem.arrival_time(b);
  };
  if (!std::is_sorted(order.begin(), order.end(), earlier)) {
    std::stable_sort(order.begin(), order.end(), earlier);
  }
  return order;
}

SimulationResult run_immediate_mode(const sched::SchedulingProblem& problem,
                                    const TrmsConfig& config) {
  auto heuristic = sched::make_immediate(config.heuristic);
  heuristic->reset();
  sched::Schedule schedule = sched::Schedule::for_problem(problem);
  const std::vector<std::size_t> order = arrival_order(problem);
  // Each arrival is an event: its request is mapped at its own time.
  for (const std::size_t r : order) {
    const double now = problem.arrival_time(r);
    const std::size_t m = sched::select_machine_instrumented(
        *heuristic, problem, r, now, schedule);
    sched::commit_assignment(problem, r, m, now, schedule);
  }
  return finish(problem, std::move(schedule), 0, order.size());
}

SimulationResult run_batch_mode(const sched::SchedulingProblem& problem,
                                const TrmsConfig& config) {
  GT_REQUIRE(std::isfinite(config.batch_interval) &&
                 config.batch_interval > 0.0,
             "batch interval must be finite and positive");
  auto heuristic = sched::make_batch(config.heuristic);
  sched::Schedule schedule = sched::Schedule::for_problem(problem);
  const std::vector<std::size_t> order = arrival_order(problem);

  std::vector<std::size_t> queue;  // arrived, not yet dispatched
  std::size_t next = 0;            // position in `order` of the next arrival
  std::size_t batches = 0;
  std::uint64_t ticks = 0;
  double tick_at = 0.0;
  // Each tick falls one interval after the last (the first one after time
  // 0).  The arrivals due by it, an arrival exactly on it included, join its
  // meta-request; an empty tick maps nothing but is still an event.  The
  // run ends at the first tick after which no request is left to arrive.
  do {
    tick_at = tick_at + config.batch_interval;
    ++ticks;
    while (next < order.size() &&
           problem.arrival_time(order[next]) <= tick_at) {
      queue.push_back(order[next++]);
    }
    if (!queue.empty()) {
      ++batches;
      sched::map_batch_instrumented(*heuristic, problem, queue, tick_at,
                                    schedule);
      queue.clear();
    }
  } while (next < order.size());
  return finish(problem, std::move(schedule), batches, order.size() + ticks);
}

}  // namespace

obs::RunReport SimulationResult::report() const {
  obs::RunReport out;
  out.set("makespan", makespan);
  out.set("utilization_pct", utilization_pct);
  out.set("mean_flow_time", mean_flow_time);
  out.set("flow_time_p50", flow_time_p50);
  out.set("flow_time_p95", flow_time_p95);
  out.set("batches", static_cast<double>(batches));
  out.set("events", static_cast<double>(events));
  return out;
}

SimulationResult run_trms(const sched::SchedulingProblem& problem,
                          const TrmsConfig& config) {
  GT_REQUIRE(problem.num_requests() > 0, "nothing to schedule");
  kTrmsRuns.add();
  obs::ScopedTimer timer(kTrmsNs);
  switch (config.mode) {
    case SchedulingMode::kImmediate:
      return run_immediate_mode(problem, config);
    case SchedulingMode::kBatch:
      return run_batch_mode(problem, config);
  }
  GT_ASSERT(false);
  return {};
}

}  // namespace gridtrust::sim
