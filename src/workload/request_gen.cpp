#include "workload/request_gen.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace gridtrust::workload {

std::vector<grid::Request> generate_requests(const grid::GridSystem& grid,
                                             std::size_t count,
                                             const RequestGenParams& params,
                                             Rng& rng) {
  GT_REQUIRE(count > 0, "need at least one request");
  GT_REQUIRE(params.min_activities >= 1 &&
                 params.min_activities <= params.max_activities,
             "invalid activity-count range");
  GT_REQUIRE(params.max_activities <= grid.activities().size(),
             "requests cannot need more ToAs than the catalog provides");
  GT_REQUIRE(params.max_activities <= grid::ActivityList::kCapacity,
             "a request holds at most " +
                 std::to_string(grid::ActivityList::kCapacity) + " ToAs");
  GT_REQUIRE(trust::is_valid_level(params.min_rtl) &&
                 trust::is_valid_level(params.max_rtl) &&
                 params.min_rtl <= params.max_rtl,
             "invalid RTL range");

  std::vector<grid::Request> requests;
  requests.reserve(count);
  double arrival = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    grid::Request req;
    req.id = i;
    if (grid.clients().empty()) {
      req.client_domain = rng.index(grid.client_domains().size());
    } else {
      // Draw an actual client; it inherits its domain's trust attributes.
      req.client = rng.index(grid.clients().size());
      req.client_domain = grid.client(req.client).client_domain;
    }
    const auto n_acts = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(params.min_activities),
                        static_cast<std::int64_t>(params.max_activities)));
    std::vector<std::size_t> picks =
        rng.sample_indices(grid.activities().size(), n_acts);
    std::sort(picks.begin(), picks.end());
    req.activities.assign(picks.begin(), picks.end());
    req.client_rtl = trust::level_from_numeric(
        static_cast<int>(rng.uniform_int(params.min_rtl, params.max_rtl)));
    req.resource_rtl = trust::level_from_numeric(
        static_cast<int>(rng.uniform_int(params.min_rtl, params.max_rtl)));
    if (params.arrival_rate > 0.0) {
      arrival += rng.exponential(1.0 / params.arrival_rate);
    }
    req.arrival_time = arrival;
    requests.push_back(std::move(req));
  }
  return requests;
}

trust::TrustLevelTable random_trust_table(const grid::GridSystem& grid,
                                          Rng& rng,
                                          TableCorrelation correlation) {
  trust::TrustLevelTable table(grid.client_domains().size(),
                               grid.resource_domains().size(),
                               grid.activities().size());
  switch (correlation) {
    case TableCorrelation::kIndependentPerActivity:
      table.randomize(rng);
      break;
    case TableCorrelation::kPairLevel:
      for (std::size_t cd = 0; cd < table.client_domains(); ++cd) {
        for (std::size_t rd = 0; rd < table.resource_domains(); ++rd) {
          const auto level = trust::level_from_numeric(static_cast<int>(
              rng.uniform_int(trust::to_numeric(trust::kMinTrustLevel),
                              trust::to_numeric(trust::kMaxOfferedLevel))));
          for (std::size_t act = 0; act < table.activities(); ++act) {
            table.set(cd, rd, act, level);
          }
        }
      }
      break;
  }
  return table;
}

std::vector<double> draw_deadlines(const std::vector<grid::Request>& requests,
                                   const sched::CostMatrix& eec,
                                   double min_slack, double max_slack,
                                   Rng& rng) {
  GT_REQUIRE(!requests.empty(), "need requests to draw deadlines for");
  GT_REQUIRE(eec.rows() == requests.size(),
             "EEC matrix must cover every request");
  GT_REQUIRE(min_slack >= 1.0 && min_slack <= max_slack,
             "slack range must satisfy 1 <= min <= max");
  std::vector<double> deadlines;
  deadlines.reserve(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    double best = eec.get(r, 0);
    for (std::size_t m = 1; m < eec.cols(); ++m) {
      best = std::min(best, eec.get(r, m));
    }
    const double slack = rng.uniform(min_slack, max_slack);
    deadlines.push_back(requests[r].arrival_time + slack * best);
  }
  return deadlines;
}

double deadline_miss_fraction(const sched::Schedule& schedule,
                              const std::vector<double>& deadlines) {
  GT_REQUIRE(!deadlines.empty(), "need deadlines to evaluate");
  GT_REQUIRE(schedule.machine_of.size() == deadlines.size(),
             "deadline count must match the schedule");
  std::size_t missed = 0;
  for (std::size_t r = 0; r < deadlines.size(); ++r) {
    GT_REQUIRE(schedule.machine_of[r] != sched::kUnassigned,
               "schedule is incomplete");
    if (schedule.completion[r] > deadlines[r]) ++missed;
  }
  return static_cast<double>(missed) / static_cast<double>(deadlines.size());
}

}  // namespace gridtrust::workload
