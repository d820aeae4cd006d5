// Mapping heuristic interfaces (Maheswaran et al. [10], trust-aware per §4).
//
// Immediate-mode (on-line) heuristics map each request as it arrives; batch
// heuristics map a whole meta-request at once.  Heuristics are policy-blind:
// they minimize decision_cost-based completion metrics, and the same code
// becomes trust-aware or trust-unaware purely through the problem's policy.
// Determinism: all tie-breaks favour the lowest machine / request index.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/problem.hpp"
#include "sched/schedule.hpp"

namespace gridtrust::sched {

/// On-line mode: one request at a time, in arrival order.
class ImmediateHeuristic {
 public:
  virtual ~ImmediateHeuristic() = default;

  /// Stable identifier ("mct", "olb", ...).
  virtual std::string name() const = 0;

  /// Clears any internal state; called before each run.
  virtual void reset() {}

  /// Picks the machine for request `r`.  `ready` is the earliest time the
  /// request can start (its arrival, or the dispatch time); `schedule`
  /// exposes the current machine availability.
  virtual std::size_t select_machine(const SchedulingProblem& p,
                                     std::size_t r, double ready,
                                     const Schedule& schedule) = 0;
};

/// Batch mode: maps every request of a meta-request, committing assignments
/// into `schedule` (heuristics call commit_assignment so availability
/// evolves as they decide).
class BatchHeuristic {
 public:
  virtual ~BatchHeuristic() = default;

  virtual std::string name() const = 0;

  /// Maps all requests in `batch` (indices into `p`), none of which may be
  /// assigned yet.  `ready` floors all start times (batch formation time).
  virtual void map_batch(const SchedulingProblem& p,
                         const std::vector<std::size_t>& batch, double ready,
                         Schedule& schedule) = 0;
};

/// Completion metric used for mapping decisions:
/// max(α_m, ready, arrival(r)) + decision_cost(r, m).
double decision_completion(const SchedulingProblem& p, std::size_t r,
                           std::size_t m, double ready,
                           const Schedule& schedule);

/// Batch preconditions shared by every BatchHeuristic, checked before any
/// commit: `schedule` is sized for `p`, and each index in `batch` is in
/// range, unassigned and listed once.  Throws PreconditionError.
void check_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch,
                 const Schedule& schedule);

// --- Immediate-mode heuristics of [10] ---

/// OLB: earliest-available machine, costs ignored.
std::unique_ptr<ImmediateHeuristic> make_olb();
/// MET: minimum decision cost, availability ignored.
std::unique_ptr<ImmediateHeuristic> make_met();
/// MCT: minimum completion (the paper's on-line heuristic, §4).
std::unique_ptr<ImmediateHeuristic> make_mct();
/// KPB: minimum completion among the k% of machines with the best decision
/// cost for the request.  `k_pct` in (0, 100].
std::unique_ptr<ImmediateHeuristic> make_kpb(double k_pct = 50.0);
/// SA: switches between MCT and MET based on the load-balance index
/// min(α)/max(α): below `low` use MCT, above `high` use MET.
std::unique_ptr<ImmediateHeuristic> make_switching(double low = 0.6,
                                                   double high = 0.9);

// --- Batch-mode heuristics of [10] ---

/// Min-min: repeatedly commit the request whose best completion is smallest.
std::unique_ptr<BatchHeuristic> make_min_min();
/// Max-min: repeatedly commit the request whose best completion is largest.
std::unique_ptr<BatchHeuristic> make_max_min();
/// Sufferage: per iteration, machines go to the requests that would suffer
/// most (largest second-best minus best completion) without them.
std::unique_ptr<BatchHeuristic> make_sufferage();
/// Duplex: runs Min-min and Max-min, keeps the schedule with lower makespan.
std::unique_ptr<BatchHeuristic> make_duplex();

/// Factory by name; throws PreconditionError for unknown names.
std::unique_ptr<ImmediateHeuristic> make_immediate(const std::string& name);
std::unique_ptr<BatchHeuristic> make_batch(const std::string& name);

/// Registered heuristic names.
std::vector<std::string> immediate_heuristic_names();
std::vector<std::string> batch_heuristic_names();

}  // namespace gridtrust::sched
