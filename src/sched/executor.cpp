#include "sched/executor.hpp"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hpp"

namespace gridtrust::sched {

Schedule run_immediate(const SchedulingProblem& p, ImmediateHeuristic& h) {
  Schedule schedule = Schedule::for_problem(p);
  std::vector<std::size_t> order(p.num_requests());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return p.arrival_time(a) < p.arrival_time(b);
                   });
  h.reset();
  for (const std::size_t r : order) {
    const double ready = p.arrival_time(r);
    const std::size_t m = select_machine_instrumented(h, p, r, ready, schedule);
    commit_assignment(p, r, m, ready, schedule);
  }
  return schedule;
}

Schedule run_batch_all(const SchedulingProblem& p, BatchHeuristic& h,
                       double ready) {
  Schedule schedule = Schedule::for_problem(p);
  std::vector<std::size_t> batch(p.num_requests());
  std::iota(batch.begin(), batch.end(), std::size_t{0});
  map_batch_instrumented(h, p, batch, ready, schedule);
  return schedule;
}

std::size_t select_machine_instrumented(ImmediateHeuristic& h,
                                        const SchedulingProblem& p,
                                        std::size_t r, double ready,
                                        const Schedule& schedule) {
  // Counted, not timed: one decision scans the machines once, which costs
  // less than the clock reads a timer would add around it.
  static const obs::Counter kSelectCalls("sched.heuristic_invocations");
  kSelectCalls.add();
  return h.select_machine(p, r, ready, schedule);
}

void map_batch_instrumented(BatchHeuristic& h, const SchedulingProblem& p,
                            const std::vector<std::size_t>& batch,
                            double ready, Schedule& schedule) {
  static const obs::Counter kBatches("sched.batches_mapped");
  static const obs::Histogram kBatchSize("sched.batch_size",
                                         obs::count_bounds());
  static const obs::Histogram kMapNs("sched.map_batch_ns",
                                     obs::duration_bounds_ns());
  kBatches.add();
  kBatchSize.observe(static_cast<double>(batch.size()));
  obs::ScopedTimer timer(kMapNs);
  h.map_batch(p, batch, ready, schedule);
}

}  // namespace gridtrust::sched
