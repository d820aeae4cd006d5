#include "sim/trm_simulation.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "des/simulator.hpp"
#include "obs/metrics.hpp"
#include "sched/executor.hpp"

namespace gridtrust::sim {

namespace {

const obs::Counter kTrmsRuns("sim.trms_runs");
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
  out.schedule = std::move(schedule);
  return out;
}

/// Request indices in the order the kernel runs their arrivals: by
/// (arrival time, index).  SchedulingProblem does not require sorted
/// arrivals, so the stable sort runs only when they are out of order.
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
  des::Simulator sim;
  sched::Schedule schedule = sched::Schedule::for_problem(problem);
  const std::vector<std::size_t> order = arrival_order(problem);
  std::size_t next = 0;  // position in `order` of the pending arrival

  // Each arrival maps its request and then schedules the next one, so the
  // queue never holds more than one event.  Each event holds only a pointer
  // to the handler, so scheduling never copies its closure onto the heap.
  std::function<void()> arrive = [&] {
    const std::size_t r = order[next++];
    const std::size_t m = sched::select_machine_instrumented(
        *heuristic, problem, r, sim.now(), schedule);
    sched::commit_assignment(problem, r, m, sim.now(), schedule);
    if (next < order.size()) {
      sim.schedule_at(problem.arrival_time(order[next]),
                      [&arrive] { arrive(); });
    }
  };
  sim.schedule_at(problem.arrival_time(order.front()), [&arrive] { arrive(); });
  sim.run();
  return finish(problem, std::move(schedule), 0, sim.executed_events());
}

SimulationResult run_batch_mode(const sched::SchedulingProblem& problem,
                                const TrmsConfig& config) {
  GT_REQUIRE(config.batch_interval > 0.0,
             "batch interval must be positive");
  auto heuristic = sched::make_batch(config.heuristic);
  des::Simulator sim;
  sched::Schedule schedule = sched::Schedule::for_problem(problem);
  const std::vector<std::size_t> order = arrival_order(problem);

  std::vector<std::size_t> queue;  // arrived, not yet dispatched
  std::size_t next = 0;            // position in `order` of the next arrival
  std::size_t batches = 0;
  // The next meta-request formation tick: one interval after time 0, then
  // one interval after each tick, until every request has been dispatched.
  des::SimTime tick_at = sim.now() + config.batch_interval;

  // Every event schedules the one that follows it in the kernel's
  // (time, seq) order: the next arrival while it is due by the pending
  // tick, otherwise the tick.  An arrival exactly on a tick therefore still
  // joins that tick's batch, and the queue never holds more than one event.
  std::function<void()> arrive;
  std::function<void()> tick;
  const auto schedule_next = [&] {
    if (next < order.size() && problem.arrival_time(order[next]) <= tick_at) {
      sim.schedule_at(problem.arrival_time(order[next]),
                      [&arrive] { arrive(); });
    } else {
      sim.schedule_at(tick_at, [&tick] { tick(); });
    }
  };
  arrive = [&] {
    queue.push_back(order[next++]);
    schedule_next();
  };
  tick = [&] {
    if (!queue.empty()) {
      ++batches;
      sched::map_batch_instrumented(*heuristic, problem, queue, sim.now(),
                                    schedule);
      queue.clear();
    }
    if (next < order.size()) {  // requests still to arrive and dispatch
      tick_at = sim.now() + config.batch_interval;
      schedule_next();
    }
  };
  schedule_next();

  sim.run();
  return finish(problem, std::move(schedule), batches, sim.executed_events());
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
