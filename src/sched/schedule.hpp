// Schedule: the outcome of mapping a set of requests onto machines.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "sched/problem.hpp"

namespace gridtrust::sched {

/// Sentinel for "not yet assigned".
inline constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();

/// A complete (or in-progress) mapping of requests to machines together with
/// realized timing.  All times are in actual-cost terms: machine busy time
/// includes the incurred security overhead.
struct Schedule {
  /// Per request: chosen machine (kUnassigned until mapped).
  std::vector<std::size_t> machine_of;
  /// Per request: start time on its machine.
  std::vector<double> start;
  /// Per request: completion time (start + actual cost).
  std::vector<double> completion;
  /// Per machine: available time α after all assigned requests.
  std::vector<double> machine_available;
  /// Per machine: total busy time (Σ actual costs; excludes idle gaps).
  std::vector<double> machine_busy;

  /// Empty schedule sized for a problem.
  static Schedule for_problem(const SchedulingProblem& p);

  /// True when every request has been mapped.
  bool complete() const;

  /// Makespan Λ = max over machines of the available time.
  double makespan() const;

  /// Average machine utilization in percent: Σ busy / (machines · Λ).
  /// Returns 0 for an empty schedule.
  double utilization_pct() const;

  /// Mean flow time: average over requests of completion - arrival.
  double mean_flow_time(const SchedulingProblem& p) const;
};

/// Commits request `r` to machine `m`: start = max(α_m, ready, arrival(r)),
/// α_m and busy_m advance by the *actual* cost.  `schedule` must not already
/// contain an assignment for `r`.
void commit_assignment(const SchedulingProblem& p, std::size_t r,
                       std::size_t m, double ready, Schedule& schedule);

}  // namespace gridtrust::sched
