// A scheduling problem instance: costs per (request, machine) under a policy.
//
// The heuristics see two views of the cost of running request r on machine m:
//   decision_cost(r, m) — EEC + decision-time ESC (what the mapper minimizes)
//   actual_cost(r, m)   — EEC + incurred ESC (what the machine really spends)
// Trust-aware policies make the two coincide; the trust-unaware policy
// decides on bare EEC while the machine pays blanket security.
//
// Both views are filled once per (r, m) whenever the costs or the policy
// change (construction, set_extra_costs, with_policy), each entry from
// SecurityCostModel::ecc plus the extra layer, so the heuristics' inner
// loops read plain rows.  Every input must be finite (docs/scheduling.md,
// "Finite inputs"): the incremental batch heuristics compare costs and rely
// on machine availability never decreasing.
#pragma once

#include <vector>

#include "grid/grid_system.hpp"
#include "grid/request.hpp"
#include "sched/matrix.hpp"
#include "sched/security_model.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::sched {

/// Immutable cost view handed to heuristics.
class SchedulingProblem {
 public:
  /// Builds a problem from precomputed EEC and trust-cost matrices.
  /// `eec` and `tc` must have identical dimensions; EEC values and arrival
  /// times must be finite and non-negative.
  SchedulingProblem(CostMatrix eec, TrustCostMatrix tc,
                    SchedulingPolicy policy, SecurityCostModel model,
                    std::vector<double> arrival_times = {});

  /// Additive cost layers beyond the ESC model — e.g. data-staging times
  /// that depend on the (request, machine) pair (net-integrated TRMS).
  /// `decision` is added to decision_cost, `actual` to actual_cost; both
  /// must match the problem's dimensions and be finite and non-negative.
  void set_extra_costs(CostMatrix decision, CostMatrix actual);

  std::size_t num_requests() const { return eec_.rows(); }
  std::size_t num_machines() const { return eec_.cols(); }

  const SchedulingPolicy& policy() const { return policy_; }
  const SecurityCostModel& security_model() const { return model_; }

  /// Expected execution cost of request r on machine m (seconds).
  double eec(std::size_t r, std::size_t m) const { return eec_.get(r, m); }

  /// Trust cost (0..6) of request r on machine m.
  int trust_cost(std::size_t r, std::size_t m) const { return tc_.get(r, m); }

  /// Cost the mapper minimizes: EEC + ESC under the decision model (plus
  /// any extra decision layer).  Unchecked, like CostMatrix::get.
  double decision_cost(std::size_t r, std::size_t m) const {
    return decision_.get(r, m);
  }

  /// Request r's decision costs on machines 0..num_machines()-1
  /// (unchecked).
  const double* decision_row(std::size_t r) const { return decision_.row(r); }

  /// Cost the machine incurs: EEC + ESC under the incurred model (plus any
  /// extra incurred layer).  Unchecked, like CostMatrix::get.
  double actual_cost(std::size_t r, std::size_t m) const {
    return actual_.get(r, m);
  }

  /// Arrival time of request r; 0 when the problem was built without
  /// arrival information (pure batch instance).
  double arrival_time(std::size_t r) const {
    GT_REQUIRE(r < num_requests(), "request index out of range");
    return arrivals_[r];
  }

  /// Rebinds the same costs to a different policy (used to compare policies
  /// on identical workloads).
  SchedulingProblem with_policy(SchedulingPolicy policy) const;

 private:
  /// with_policy: copies the validated inputs and builds the rows once.
  SchedulingProblem(const SchedulingProblem& base, SchedulingPolicy policy);

  /// Fills decision_ and actual_ from the inputs, policy and extra layers.
  void build_costs();

  CostMatrix eec_;
  TrustCostMatrix tc_;
  SchedulingPolicy policy_;
  SecurityCostModel model_;
  std::vector<double> arrivals_;  // one per request (zeros when omitted)
  // Empty (0x0) when unused.
  CostMatrix extra_decision_;
  CostMatrix extra_actual_;
  CostMatrix decision_;
  CostMatrix actual_;
};

/// Computes the trust-cost matrix for `requests` against every machine of
/// `grid`: TC(r, m) = trust_cost(effective RTL of r, OTL of (CD(r), RD(m))
/// over r's activities), with the OTL read from `table`.  Machines whose
/// resource domain does not support one of the request's activities get
/// `unsupported_penalty` (default: the maximal trust cost, making them
/// maximally unattractive but still feasible).
TrustCostMatrix compute_trust_costs(const grid::GridSystem& grid,
                                    const std::vector<grid::Request>& requests,
                                    const trust::TrustLevelTable& table,
                                    const SecurityCostModel& model,
                                    int unsupported_penalty =
                                        trust::kMaxTrustCost);

}  // namespace gridtrust::sched
