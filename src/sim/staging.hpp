// Data-staging-aware scheduling: the §5.1 transfer study fused into the
// TRMS.
//
// Grid tasks ship input data from the client's domain to the executing
// machine.  §5.1 measured how expensive securing that transfer is (Tables
// 2-3); the trust model says when securing is *necessary*: if the offered
// trust level already covers the requirement (trust cost 0) the pair can
// use plain rcp, otherwise the transfer must be secured (scp).  A
// trust-aware RMS therefore sees placement-dependent staging costs and can
// keep bulk data inside trusted relationships; the conservative baseline
// encrypts everything, everywhere.
//
// Staging times come from the calibrated net::TransferModel; transfers
// within the client's own Grid domain are local (no WAN hop, no cost).
#pragma once

#include <cstdint>
#include <vector>

#include "grid/grid_system.hpp"
#include "grid/request.hpp"
#include "net/transfer_model.hpp"
#include "obs/report.hpp"
#include "sched/matrix.hpp"
#include "sched/problem.hpp"
#include "sim/experiment.hpp"

namespace gridtrust::sim {

/// Per-(request, machine) staging times under the two security postures.
struct StagingCosts {
  /// Trust-adaptive: rcp where the trust cost is 0, scp otherwise.
  sched::CostMatrix trust_adaptive;
  /// Conservative: scp everywhere (what a trust-unaware deployment must do).
  sched::CostMatrix conservative;
};

/// Draws per-request input-data volumes ~ U[min_mb, max_mb] (0 allowed:
/// a request with no input stages nothing).
std::vector<double> draw_input_sizes(std::size_t requests, double min_mb,
                                     double max_mb, Rng& rng);

/// Computes staging times for every (request, machine) pair.
///
/// A transfer is local — zero cost — when the machine's resource domain and
/// the request's client domain project from the same Grid domain.  `tc` is
/// the trust-cost matrix of the same instance (decides rcp vs scp for the
/// adaptive posture).  `input_mb[r]` of 0 stages nothing.
StagingCosts compute_staging_costs(const grid::GridSystem& grid,
                                   const std::vector<grid::Request>& requests,
                                   const std::vector<double>& input_mb,
                                   const sched::TrustCostMatrix& tc,
                                   const net::TransferModel& wan);

/// Attaches staging to a problem: the *decision* layer follows the
/// problem's policy posture (trust-aware policies see the adaptive costs;
/// others see none — the unaware mapper ignores staging like it ignores
/// security), while the *incurred* layer is adaptive for trust-aware
/// policies and conservative otherwise.
void attach_staging(sched::SchedulingProblem& problem,
                    const StagingCosts& staging);

/// One paired replication with input-data staging, the unit of the
/// `staging` catalog spec.  Draws one instance from `rep_seed`, then each
/// request's input volume ~ U[min_mb, max_mb] from the same stream, and
/// stages over a `wan_mbps` WAN (100 or 1000: the links of Tables 2-3).
/// Reports the staged arms as sim::run_paired does (`unaware.*`,
/// `aware.*`, `makespan_diff`), then the same instance without staging as
/// `plain.unaware.makespan`, `plain.aware.makespan` and
/// `plain.makespan_diff`.
obs::RunReport run_staged_paired(const Scenario& scenario, double min_mb,
                                 double max_mb, double wan_mbps,
                                 std::uint64_t rep_seed);

}  // namespace gridtrust::sim
