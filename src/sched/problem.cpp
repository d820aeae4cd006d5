#include "sched/problem.hpp"

#include <cmath>
#include <span>

#include "common/error.hpp"

namespace gridtrust::sched {

SchedulingProblem::SchedulingProblem(CostMatrix eec, TrustCostMatrix tc,
                                     SchedulingPolicy policy,
                                     SecurityCostModel model,
                                     std::vector<double> arrival_times)
    : eec_(std::move(eec)),
      tc_(std::move(tc)),
      policy_(std::move(policy)),
      model_(model),
      arrivals_(std::move(arrival_times)) {
  GT_REQUIRE(eec_.rows() == tc_.rows() && eec_.cols() == tc_.cols(),
             "EEC and trust-cost matrices must have identical shapes");
  GT_REQUIRE(arrivals_.empty() || arrivals_.size() == eec_.rows(),
             "arrival times must cover every request");
  for (std::size_t r = 0; r < eec_.rows(); ++r) {
    for (std::size_t m = 0; m < eec_.cols(); ++m) {
      GT_REQUIRE(std::isfinite(eec_.get(r, m)) && eec_.get(r, m) >= 0.0,
                 "EEC values must be finite and non-negative");
      GT_REQUIRE(tc_.get(r, m) >= 0 && tc_.get(r, m) <= trust::kMaxTrustCost,
                 "trust costs must be in [0, 6]");
    }
  }
  for (const double arrival : arrivals_) {
    GT_REQUIRE(std::isfinite(arrival) && arrival >= 0.0,
               "arrival times must be finite and non-negative");
  }
  if (arrivals_.empty()) arrivals_.assign(eec_.rows(), 0.0);
  build_costs();
}

SchedulingProblem::SchedulingProblem(const SchedulingProblem& base,
                                     SchedulingPolicy policy)
    : eec_(base.eec_),
      tc_(base.tc_),
      policy_(std::move(policy)),
      model_(base.model_),
      arrivals_(base.arrivals_),
      extra_decision_(base.extra_decision_),
      extra_actual_(base.extra_actual_) {
  build_costs();
}

void SchedulingProblem::build_costs() {
  if (eec_.rows() == 0) return;  // 0x0 problem: nothing to price
  decision_ = CostMatrix(eec_.rows(), eec_.cols());
  actual_ = CostMatrix(eec_.rows(), eec_.cols());
  const bool extra = extra_decision_.rows() != 0;
  for (std::size_t r = 0; r < eec_.rows(); ++r) {
    const double* eec = eec_.row(r);
    const int* tc = tc_.row(r);
    double* decision = decision_.row(r);
    double* actual = actual_.row(r);
    for (std::size_t m = 0; m < eec_.cols(); ++m) {
      decision[m] = model_.ecc(policy_.decision, eec[m], tc[m]);
      actual[m] = model_.ecc(policy_.actual, eec[m], tc[m]);
    }
    if (!extra) continue;
    const double* extra_decision = extra_decision_.row(r);
    const double* extra_actual = extra_actual_.row(r);
    for (std::size_t m = 0; m < eec_.cols(); ++m) {
      decision[m] += extra_decision[m];
      actual[m] += extra_actual[m];
    }
  }
}

void SchedulingProblem::set_extra_costs(CostMatrix decision,
                                        CostMatrix actual) {
  GT_REQUIRE(decision.rows() == eec_.rows() && decision.cols() == eec_.cols(),
             "extra decision costs must match the problem's shape");
  GT_REQUIRE(actual.rows() == eec_.rows() && actual.cols() == eec_.cols(),
             "extra actual costs must match the problem's shape");
  for (std::size_t r = 0; r < eec_.rows(); ++r) {
    for (std::size_t m = 0; m < eec_.cols(); ++m) {
      const double d = decision.get(r, m);
      const double a = actual.get(r, m);
      GT_REQUIRE(std::isfinite(d) && std::isfinite(a) && d >= 0.0 && a >= 0.0,
                 "extra costs must be finite and non-negative");
    }
  }
  extra_decision_ = std::move(decision);
  extra_actual_ = std::move(actual);
  build_costs();
}

SchedulingProblem SchedulingProblem::with_policy(
    SchedulingPolicy policy) const {
  return SchedulingProblem(*this, std::move(policy));
}

namespace {

/// Each machine's resource domain, resolved once per compute_trust_costs
/// call.
struct MachineDomains {
  std::vector<grid::ResourceDomainId> id;
  std::vector<const grid::ResourceDomain*> domain;

  explicit MachineDomains(const grid::GridSystem& grid) {
    const std::size_t n = grid.machines().size();
    id.reserve(n);
    domain.reserve(n);
    for (std::size_t m = 0; m < n; ++m) {
      id.push_back(grid.domain_of_machine(m));
      domain.push_back(&grid.resource_domain(id.back()));
    }
  }
};

/// Checks one request against the grid, once per compute_trust_costs row:
/// a known client domain and at least one ToA, every ToA in the catalog.
void check_request(const grid::GridSystem& grid, const grid::Request& req) {
  GT_REQUIRE(!req.activities.empty(), "a request needs at least one ToA");
  GT_REQUIRE(req.client_domain < grid.client_domains().size(),
             "request originates from an unknown client domain");
  for (const grid::ActivityId act : req.activities) {
    GT_REQUIRE(act < grid.activities().size(),
               "request ToA is not in the grid's activity catalog");
  }
}

/// True when `domain` supports every ToA of `req`.
bool supports_all(const grid::ResourceDomain& domain,
                  const grid::Request& req) {
  if (domain.supported_activities.empty()) return true;
  for (const grid::ActivityId act : req.activities) {
    if (!domain.supports(act)) return false;
  }
  return true;
}

}  // namespace

TrustCostMatrix compute_trust_costs(const grid::GridSystem& grid,
                                    const std::vector<grid::Request>& requests,
                                    const trust::TrustLevelTable& table,
                                    const SecurityCostModel& model,
                                    int unsupported_penalty) {
  GT_REQUIRE(!requests.empty(), "need at least one request");
  GT_REQUIRE(unsupported_penalty >= 0 &&
                 unsupported_penalty <= trust::kMaxTrustCost,
             "penalty must be a valid trust cost");
  GT_REQUIRE(table.resource_domains() == grid.resource_domains().size() &&
                 table.client_domains() == grid.client_domains().size(),
             "trust table does not match the grid topology");

  const std::size_t n_machines = grid.machines().size();
  const MachineDomains machines(grid);
  TrustCostMatrix tc(requests.size(), n_machines, 0);
  // Per row: the machines whose RD supports the request, their RDs, and
  // the OTL the table offers on each.
  std::vector<std::size_t> supported;
  std::vector<grid::ResourceDomainId> rds;
  std::vector<trust::TrustLevel> otl(n_machines);
  supported.reserve(n_machines);
  rds.reserve(n_machines);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const grid::Request& req = requests[r];
    check_request(grid, req);
    int* row = tc.row(r);
    supported.clear();
    rds.clear();
    for (std::size_t m = 0; m < n_machines; ++m) {
      if (supports_all(*machines.domain[m], req)) {
        supported.push_back(m);
        rds.push_back(machines.id[m]);
      } else {
        row[m] = unsupported_penalty;
      }
    }
    if (supported.empty()) continue;
    table.offered_trust_levels(req.client_domain, rds,
                               std::span<const std::size_t>(req.activities),
                               otl);
    const trust::TrustLevel rtl = req.effective_rtl();
    for (std::size_t i = 0; i < supported.size(); ++i) {
      row[supported[i]] = model.trust_cost(rtl, otl[i]);
    }
  }
  return tc;
}

}  // namespace gridtrust::sched
