#include "sim/trm_simulation.hpp"

#include <algorithm>
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
  std::sort(flows.begin(), flows.end());
  out.flow_time_p50 = sorted_percentile(flows, 50.0);
  out.flow_time_p95 = sorted_percentile(flows, 95.0);
  out.batches = batches;
  out.events = events;
  out.schedule = std::move(schedule);
  return out;
}

SimulationResult run_immediate_mode(const sched::SchedulingProblem& problem,
                                    const TrmsConfig& config) {
  auto heuristic = sched::make_immediate(config.heuristic);
  heuristic->reset();
  des::Simulator sim;
  sched::Schedule schedule = sched::Schedule::for_problem(problem);
  for (std::size_t r = 0; r < problem.num_requests(); ++r) {
    sim.schedule_at(problem.arrival_time(r), [&, r] {
      const std::size_t m = sched::select_machine_instrumented(
          *heuristic, problem, r, sim.now(), schedule);
      sched::commit_assignment(problem, r, m, sim.now(), schedule);
    });
  }
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

  std::vector<std::size_t> queue;  // arrived, not yet dispatched
  std::size_t dispatched = 0;
  std::size_t batches = 0;

  for (std::size_t r = 0; r < problem.num_requests(); ++r) {
    sim.schedule_at(problem.arrival_time(r), [&, r] { queue.push_back(r); });
  }

  // Recurring meta-request formation tick; reschedules itself until every
  // request has been dispatched.  Each event holds only a pointer to the
  // tick, so rescheduling never copies its closure onto the heap.
  std::function<void()> tick = [&] {
    if (!queue.empty()) {
      ++batches;
      dispatched += queue.size();
      sched::map_batch_instrumented(*heuristic, problem, queue, sim.now(),
                                    schedule);
      queue.clear();
    }
    if (dispatched < problem.num_requests()) {
      sim.schedule_in(config.batch_interval, [&tick] { tick(); });
    }
  };
  sim.schedule_in(config.batch_interval, [&tick] { tick(); });

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
