#include "sched/schedule.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gridtrust::sched {

Schedule Schedule::for_problem(const SchedulingProblem& p) {
  Schedule s;
  s.machine_of.assign(p.num_requests(), kUnassigned);
  s.start.assign(p.num_requests(), 0.0);
  s.completion.assign(p.num_requests(), 0.0);
  s.machine_available.assign(p.num_machines(), 0.0);
  s.machine_busy.assign(p.num_machines(), 0.0);
  return s;
}

bool Schedule::complete() const {
  return std::none_of(machine_of.begin(), machine_of.end(),
                      [](std::size_t m) { return m == kUnassigned; });
}

double Schedule::makespan() const {
  double mk = 0.0;
  for (const double a : machine_available) mk = std::max(mk, a);
  return mk;
}

double Schedule::utilization_pct() const {
  const double mk = makespan();
  if (mk <= 0.0 || machine_available.empty()) return 0.0;
  double busy = 0.0;
  for (const double b : machine_busy) busy += b;
  return busy / (mk * static_cast<double>(machine_available.size())) * 100.0;
}

double Schedule::mean_flow_time(const SchedulingProblem& p) const {
  GT_REQUIRE(p.num_requests() == machine_of.size(),
             "schedule does not match the problem");
  if (machine_of.empty()) return 0.0;
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < machine_of.size(); ++r) {
    if (machine_of[r] == kUnassigned) continue;
    total += completion[r] - p.arrival_time(r);
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

void commit_assignment(const SchedulingProblem& p, std::size_t r,
                       std::size_t m, double ready, Schedule& schedule) {
  GT_REQUIRE(r < p.num_requests(), "request index out of range");
  GT_REQUIRE(m < p.num_machines(), "machine index out of range");
  GT_REQUIRE(schedule.machine_of.size() == p.num_requests() &&
                 schedule.machine_available.size() == p.num_machines(),
             "schedule was not sized for this problem");
  GT_REQUIRE(schedule.machine_of[r] == kUnassigned,
             "request is already assigned");
  const double begin = std::max({schedule.machine_available[m], ready,
                                 p.arrival_time(r)});
  const double cost = p.actual_cost(r, m);
  schedule.machine_of[r] = m;
  schedule.start[r] = begin;
  schedule.completion[r] = begin + cost;
  schedule.machine_available[m] = begin + cost;
  schedule.machine_busy[m] += cost;
}

}  // namespace gridtrust::sched
