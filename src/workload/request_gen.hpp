// Randomized request workloads (§5.3).
//
// Each request draws: an originating client domain, 1..4 distinct ToAs, a
// client-side RTL and a resource-side RTL from [A, F], and a Poisson arrival
// time.  The trust-level table entries (OTLs) are drawn from [A, E].
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "grid/grid_system.hpp"
#include "grid/request.hpp"
#include "sched/schedule.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::workload {

/// Parameters of the §5.3 request generator.
struct RequestGenParams {
  /// ToAs per request ~ U[min_activities, max_activities].
  std::size_t min_activities = 1;
  std::size_t max_activities = 4;
  /// RTLs ~ U[min_rtl, max_rtl] on the numeric level scale (A=1 .. F=6).
  int min_rtl = 1;
  int max_rtl = 6;
  /// Poisson arrival rate (requests/second); <= 0 means all requests arrive
  /// at time zero (pure batch instance).
  double arrival_rate = 0.0;
};

/// Generates `count` requests against the grid's client domains and
/// activity catalog.
std::vector<grid::Request> generate_requests(const grid::GridSystem& grid,
                                             std::size_t count,
                                             const RequestGenParams& params,
                                             Rng& rng);

/// How the random trust-level table correlates across activities.
enum class TableCorrelation {
  /// One level ~ U[A, E] per (CD, RD) pair, shared by all activities: trust
  /// between two domains is chiefly a pair property.  This makes a request's
  /// OTL itself uniform on [A, E] — matching §5.3's "OTL values were
  /// randomly generated from [1, 5]" — and is the default for the table
  /// reproductions (see DESIGN.md interpretation notes).
  kPairLevel,
  /// Independent level ~ U[A, E] per (CD, RD, ToA) entry.  A request's OTL
  /// (the min over its ToAs) then skews low; kept for ablations.
  kIndependentPerActivity,
};

/// Builds the randomized trust-level table of the simulations.
trust::TrustLevelTable random_trust_table(
    const grid::GridSystem& grid, Rng& rng,
    TableCorrelation correlation = TableCorrelation::kPairLevel);

/// Draws per-request completion deadlines for QoS studies (the paper cites
/// QoS-integrated RMS work [7, 11] as the sibling concern to security):
/// deadline_r = arrival_r + slack_r * min_m EEC(r, m), slack_r ~
/// U[min_slack, max_slack].  The minimum EEC anchors the deadline to what a
/// dedicated best machine could do; slack covers queueing and security
/// overhead.  Requires min_slack >= 1 (nothing can beat its best EEC).
std::vector<double> draw_deadlines(const std::vector<grid::Request>& requests,
                                   const sched::CostMatrix& eec,
                                   double min_slack, double max_slack,
                                   Rng& rng);

/// Fraction of requests completing after their deadline (sizes must match;
/// every request must be assigned).
double deadline_miss_fraction(const sched::Schedule& schedule,
                              const std::vector<double>& deadlines);

}  // namespace gridtrust::workload
