// Seeded randomized differential test for the instance draw.
//
// sim::draw_instance keeps each request's ToAs inline (grid::ActivityList)
// and prices trust costs a row at a time: each machine's resource domain is
// resolved once per call, each request's ToAs are checked once, and one
// TrustLevelTable query per request reads the OTL on the RDs of the
// machines that support it.  This test replays random scenarios through an
// in-test copy of the plain draw — ToAs in a std::vector, one checked table
// read per (request, machine, ToA), one checked matrix write per entry —
// and requires identical requests, tables, arrivals, trust-cost and EEC
// matrices, cost rows under every policy (==, bit-equal) and the same
// `trust.table_lookups` count.  A second part prices the drawn requests on
// the same topology with random support lists and penalties.  A divergence
// reports the failing seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "grid/grid_system.hpp"
#include "obs/metrics.hpp"
#include "sched/problem.hpp"
#include "sched/security_model.hpp"
#include "sim/experiment.hpp"
#include "trust/ets.hpp"
#include "trust/trust_table.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"

namespace gridtrust::sim {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kSeeds = 1000;

/// A request as the plain draw builds it: ToAs in a std::vector.
struct RefRequest {
  grid::ClientId client = 0;
  grid::ClientDomainId client_domain = 0;
  std::vector<grid::ActivityId> activities;
  trust::TrustLevel client_rtl = trust::TrustLevel::kA;
  trust::TrustLevel resource_rtl = trust::TrustLevel::kA;
  double arrival_time = 0.0;
};

/// The plain request draw: the same RNG calls in the same order.
std::vector<RefRequest> reference_requests(
    const grid::GridSystem& grid, std::size_t count,
    const workload::RequestGenParams& params, Rng& rng) {
  std::vector<RefRequest> requests;
  double arrival = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    RefRequest req;
    if (grid.clients().empty()) {
      req.client_domain = rng.index(grid.client_domains().size());
    } else {
      req.client = rng.index(grid.clients().size());
      req.client_domain = grid.client(req.client).client_domain;
    }
    const auto n_acts = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(params.min_activities),
                        static_cast<std::int64_t>(params.max_activities)));
    req.activities = rng.sample_indices(grid.activities().size(), n_acts);
    std::sort(req.activities.begin(), req.activities.end());
    req.client_rtl = trust::level_from_numeric(
        static_cast<int>(rng.uniform_int(params.min_rtl, params.max_rtl)));
    req.resource_rtl = trust::level_from_numeric(
        static_cast<int>(rng.uniform_int(params.min_rtl, params.max_rtl)));
    if (params.arrival_rate > 0.0) {
      arrival += rng.exponential(1.0 / params.arrival_rate);
    }
    req.arrival_time = arrival;
    requests.push_back(req);
  }
  return requests;
}

/// The plain pricing: per (request, machine) the machine's RD, its support
/// check and one TrustLevelTable::get per ToA.
sched::TrustCostMatrix reference_trust_costs(
    const grid::GridSystem& grid, const std::vector<RefRequest>& requests,
    const trust::TrustLevelTable& table, const sched::SecurityCostModel& model,
    int penalty) {
  sched::TrustCostMatrix tc(requests.size(), grid.machines().size(), 0);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const RefRequest& req = requests[r];
    const trust::TrustLevel rtl =
        trust::max_level(req.client_rtl, req.resource_rtl);
    for (std::size_t m = 0; m < grid.machines().size(); ++m) {
      const grid::ResourceDomainId rd = grid.domain_of_machine(m);
      const grid::ResourceDomain& domain = grid.resource_domain(rd);
      const bool supported =
          std::all_of(req.activities.begin(), req.activities.end(),
                      [&](grid::ActivityId act) { return domain.supports(act); });
      if (!supported) {
        tc.at(r, m) = penalty;
        continue;
      }
      trust::TrustLevel otl = trust::kMaxOfferedLevel;
      for (const grid::ActivityId act : req.activities) {
        otl = trust::min_level(otl, table.get(req.client_domain, rd, act));
      }
      tc.at(r, m) = model.trust_cost(rtl, otl);
    }
  }
  return tc;
}

/// Everything the plain draw produces.
struct RefInstance {
  grid::GridSystem grid;
  trust::TrustLevelTable table;
  std::vector<RefRequest> requests;
  sched::TrustCostMatrix tc;
  sched::CostMatrix eec;
};

RefInstance reference_draw(const Scenario& scenario, Rng& rng) {
  grid::GridSystem grid = grid::make_random_grid(scenario.grid, rng);
  trust::TrustLevelTable table =
      workload::random_trust_table(grid, rng, scenario.table_correlation);
  std::vector<RefRequest> requests =
      reference_requests(grid, scenario.tasks, scenario.requests, rng);
  const sched::SecurityCostModel model(scenario.security);
  sched::TrustCostMatrix tc = reference_trust_costs(
      grid, requests, table, model, trust::kMaxTrustCost);
  sched::CostMatrix eec = workload::generate_eec(
      scenario.tasks, grid.machines().size(), scenario.heterogeneity, rng);
  return RefInstance{std::move(grid), std::move(table), std::move(requests),
                     std::move(tc), std::move(eec)};
}

Scenario random_scenario(Rng& rng) {
  Scenario s;
  s.tasks = 1 + rng.index(120);
  s.grid.machines = 1 + rng.index(12);
  s.grid.min_client_domains = 1 + rng.index(3);
  s.grid.max_client_domains = s.grid.min_client_domains + rng.index(3);
  s.grid.min_resource_domains = 1 + rng.index(3);
  s.grid.max_resource_domains = s.grid.min_resource_domains + rng.index(4);
  s.grid.clients_per_domain = rng.index(4);
  switch (rng.index(3)) {
    case 0:
      s.heterogeneity.consistency = workload::Consistency::kConsistent;
      break;
    case 1:
      s.heterogeneity.consistency = workload::Consistency::kInconsistent;
      break;
    default:
      s.heterogeneity.consistency = workload::Consistency::kSemiConsistent;
      break;
  }
  s.heterogeneity.task = rng.bernoulli(0.5) ? workload::Heterogeneity::kLow
                                            : workload::Heterogeneity::kHigh;
  s.heterogeneity.machine = rng.bernoulli(0.5)
                                ? workload::Heterogeneity::kLow
                                : workload::Heterogeneity::kHigh;
  s.table_correlation = rng.bernoulli(0.5)
                            ? workload::TableCorrelation::kPairLevel
                            : workload::TableCorrelation::kIndependentPerActivity;
  s.requests.max_activities =
      1 + rng.index(grid::ActivityCatalog::standard().size());
  s.requests.min_activities = 1 + rng.index(s.requests.max_activities);
  s.requests.min_rtl = 1 + static_cast<int>(rng.index(6));
  s.requests.max_rtl =
      s.requests.min_rtl + static_cast<int>(rng.index(
                               static_cast<std::size_t>(7 - s.requests.min_rtl)));
  s.requests.arrival_rate = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.05, 4.0);
  s.security.tc_weight_pct = static_cast<double>(rng.uniform_int(0, 6)) * 5.0;
  s.security.blanket_pct = static_cast<double>(rng.uniform_int(2, 8)) * 10.0;
  s.security.table1_forced_f = rng.bernoulli(0.5);
  return s;
}

std::vector<sched::SchedulingPolicy> all_policies() {
  return {sched::trust_aware_policy(), sched::trust_unaware_policy(),
          sched::unaware_placement_tc_priced_policy(),
          sched::aware_placement_blanket_priced_policy()};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// `trust.table_lookups` added while `fn` runs.
template <typename Fn>
double lookups_during(Fn&& fn) {
  struct Uninstall {
    ~Uninstall() { obs::install(nullptr); }
  };
  obs::MetricsRegistry registry;
  {
    obs::install(&registry);
    const Uninstall uninstall;
    fn();
  }
  const obs::Snapshot snap = registry.snapshot();
  const auto it = snap.counters.find("trust.table_lookups");
  return it == snap.counters.end() ? 0.0 : it->second;
}

void expect_same_requests(const std::vector<grid::Request>& got,
                          const std::vector<RefRequest>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE(r);
    const grid::Request& g = got[r];
    const RefRequest& w = want[r];
    ASSERT_EQ(g.id, r);
    ASSERT_EQ(g.client, w.client);
    ASSERT_EQ(g.client_domain, w.client_domain);
    ASSERT_EQ(g.activities.size(), w.activities.size());
    ASSERT_TRUE(std::equal(g.activities.begin(), g.activities.end(),
                           w.activities.begin()));
    ASSERT_EQ(g.client_rtl, w.client_rtl);
    ASSERT_EQ(g.resource_rtl, w.resource_rtl);
    ASSERT_TRUE(same_bits(g.arrival_time, w.arrival_time));
    ASSERT_EQ(g.deadline, 0.0);
    ASSERT_EQ(g.budget, 0.0);
    ASSERT_EQ(g.valuation, 0.0);
  }
}

void expect_same_tables(const trust::TrustLevelTable& got,
                        const trust::TrustLevelTable& want) {
  ASSERT_EQ(got.client_domains(), want.client_domains());
  ASSERT_EQ(got.resource_domains(), want.resource_domains());
  ASSERT_EQ(got.activities(), want.activities());
  for (std::size_t cd = 0; cd < got.client_domains(); ++cd) {
    for (std::size_t rd = 0; rd < got.resource_domains(); ++rd) {
      for (std::size_t act = 0; act < got.activities(); ++act) {
        ASSERT_EQ(got.get(cd, rd, act), want.get(cd, rd, act))
            << "(" << cd << ", " << rd << ", " << act << ")";
      }
    }
  }
}

void expect_same_tc(const sched::TrustCostMatrix& got,
                    const sched::TrustCostMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.data(), want.data());
}

/// Problem inputs and the cost rows under every policy, each entry priced
/// from the formula.
void expect_same_problem(const sched::SchedulingProblem& p,
                         const RefInstance& ref,
                         const sched::SecurityCostModel& model) {
  ASSERT_EQ(p.num_requests(), ref.requests.size());
  ASSERT_EQ(p.num_machines(), ref.grid.machines().size());
  for (std::size_t r = 0; r < p.num_requests(); ++r) {
    ASSERT_TRUE(same_bits(p.arrival_time(r), ref.requests[r].arrival_time));
    for (std::size_t m = 0; m < p.num_machines(); ++m) {
      ASSERT_TRUE(same_bits(p.eec(r, m), ref.eec.get(r, m)));
      ASSERT_EQ(p.trust_cost(r, m), ref.tc.get(r, m));
    }
  }
  for (const sched::SchedulingPolicy& policy : all_policies()) {
    SCOPED_TRACE(policy.name);
    const sched::SchedulingProblem q = p.with_policy(policy);
    for (std::size_t r = 0; r < q.num_requests(); ++r) {
      for (std::size_t m = 0; m < q.num_machines(); ++m) {
        const double eec = ref.eec.get(r, m);
        const int tc = ref.tc.get(r, m);
        ASSERT_TRUE(same_bits(q.decision_row(r)[m],
                              model.ecc(policy.decision, eec, tc)))
            << "decision(" << r << ", " << m << ")";
        ASSERT_TRUE(same_bits(q.actual_cost(r, m),
                              model.ecc(policy.actual, eec, tc)))
            << "actual(" << r << ", " << m << ")";
      }
    }
  }
}

/// The drawn topology with random support lists on some RDs.
grid::GridSystem with_support_lists(const grid::GridSystem& grid, Rng& rng) {
  std::vector<grid::ResourceDomain> rds = grid.resource_domains();
  const std::size_t n_act = grid.activities().size();
  for (grid::ResourceDomain& rd : rds) {
    if (!rng.bernoulli(0.6)) continue;
    for (const std::size_t act :
         rng.sample_indices(n_act, 1 + rng.index(n_act))) {
      rd.supported_activities.insert(act);
    }
  }
  return grid::GridSystem(grid.activities(), grid.grid_domains(),
                          std::move(rds), grid.client_domains(),
                          grid.machines(), grid.clients());
}

void replay_seed(std::uint64_t seed) {
  Rng knobs(seed, 1);
  const Scenario scenario = random_scenario(knobs);
  const std::vector<sched::SchedulingPolicy> policies = all_policies();
  const sched::SchedulingPolicy& policy = policies[knobs.index(4)];

  Rng rng(seed);
  std::optional<Instance> drawn;
  const double got_lookups = lookups_during(
      [&] { drawn.emplace(draw_instance(scenario, policy, rng)); });
  Rng ref_rng(seed);
  std::optional<RefInstance> ref;
  const double want_lookups =
      lookups_during([&] { ref.emplace(reference_draw(scenario, ref_rng)); });
  const Instance& got = *drawn;
  const RefInstance& want = *ref;

  ASSERT_EQ(got_lookups, want_lookups) << "trust.table_lookups";
  ASSERT_EQ(got.grid.machines().size(), want.grid.machines().size());
  ASSERT_EQ(got.grid.clients().size(), want.grid.clients().size());
  ASSERT_NO_FATAL_FAILURE(expect_same_requests(got.requests, want.requests));
  ASSERT_NO_FATAL_FAILURE(expect_same_tables(got.table, want.table));
  const sched::SecurityCostModel model(scenario.security);
  ASSERT_NO_FATAL_FAILURE(expect_same_problem(got.problem, want, model));
  // Both draws consumed the same random numbers.
  ASSERT_EQ(rng(), ref_rng());

  SCOPED_TRACE("support lists");
  const grid::GridSystem restricted = with_support_lists(got.grid, knobs);
  const int penalty = static_cast<int>(knobs.uniform_int(0, 6));
  sched::TrustCostMatrix got_tc;
  sched::TrustCostMatrix want_tc;
  const double got_restricted = lookups_during([&] {
    got_tc = sched::compute_trust_costs(restricted, got.requests, got.table,
                                        model, penalty);
  });
  const double want_restricted = lookups_during([&] {
    want_tc = reference_trust_costs(restricted, want.requests, want.table,
                                    model, penalty);
  });
  ASSERT_EQ(got_restricted, want_restricted) << "trust.table_lookups";
  ASSERT_NO_FATAL_FAILURE(expect_same_tc(got_tc, want_tc));
}

TEST(DrawDifferential, MatchesThePlainDrawOnRandomScenarios) {
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    try {
      replay_seed(seed);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "unexpected exception: " << error.what();
    }
    if (HasFailure()) {
      ADD_FAILURE() << "the draw diverged from the plain draw at seed "
                    << seed;
      break;
    }
  }
}

}  // namespace
}  // namespace gridtrust::sim
