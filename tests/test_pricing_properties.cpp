// Property tests for trust-cost pricing (§4.1, Table 1).
//
// compute_trust_costs prices each request's row from one table query over
// the RDs of its machines.  These properties pin what that row may contain:
//   * Table 1: over every (RTL, OTL) in [A..F] x [A..E], the trust cost is
//     max(0, RTL - OTL), except that RTL = F always costs 6 — for
//     trust::trust_cost, for SecurityCostModel with the forced F row on and
//     (as the clamped difference) off, and through compute_trust_costs;
//   * ECC >= EEC under every cost model and scheduling policy;
//   * offered-level quantization is monotone in Γ, and so the priced trust
//     cost never rises as Γ rises;
//   * the sealed-bid auction's clearing price is a contract: at most a
//     budgeted buyer's reserve, and at least the winner's own ask.
// Each seeded property runs 1000 seeds and reports the first failing one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <vector>

#include "common/rng.hpp"
#include "econ/config.hpp"
#include "econ/market.hpp"
#include "econ/price_model.hpp"
#include "grid/grid_system.hpp"
#include "sched/problem.hpp"
#include "sched/security_model.hpp"
#include "trust/ets.hpp"
#include "trust/trust_level.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::sched {
namespace {

using trust::TrustLevel;

constexpr std::uint64_t kSeeds = 1000;

/// Runs `property(seed)` for seeds 1..kSeeds and stops at the first one
/// that fails, naming it.
template <typename Property>
void for_each_seed(const char* what, Property property) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    try {
      property(seed);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "unexpected exception: " << error.what();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << what << " fails at seed " << seed;
      return;
    }
  }
}

/// One machine in one domain; every (CD 0, RD 0, ToA) entry at `otl`; one
/// request on ToAs {0, 3} whose effective RTL is `rtl`.  Returns its TC.
int priced_trust_cost(TrustLevel rtl, TrustLevel otl,
                      const SecurityCostModel& model) {
  grid::GridSystemBuilder builder(grid::ActivityCatalog::standard());
  builder.add_machine(builder.add_grid_domain("gd"), "m");
  const grid::GridSystem g = builder.build();
  trust::TrustLevelTable table(1, 1, g.activities().size());
  for (std::size_t act = 0; act < table.activities(); ++act) {
    table.set(0, 0, act, otl);
  }
  grid::Request req;
  req.activities = {0, 3};
  req.client_rtl = rtl;
  req.resource_rtl = TrustLevel::kA;
  return compute_trust_costs(g, {req}, table, model).get(0, 0);
}

TEST(PricingProperties, TrustCostFollowsTableOne) {
  SecurityCostConfig forced;
  forced.table1_forced_f = true;
  const SecurityCostModel table1(forced);
  const SecurityCostModel clamped;  // the simulations' default
  for (int rtl = 1; rtl <= trust::to_numeric(trust::kMaxRequiredLevel); ++rtl) {
    for (int otl = 1; otl <= trust::to_numeric(trust::kMaxOfferedLevel);
         ++otl) {
      SCOPED_TRACE(::testing::Message() << "RTL " << rtl << ", OTL " << otl);
      const TrustLevel required = trust::level_from_numeric(rtl);
      const TrustLevel offered = trust::level_from_numeric(otl);
      const int difference = std::max(0, rtl - otl);
      const int table_one =
          required == TrustLevel::kF ? trust::kMaxTrustCost : difference;
      EXPECT_EQ(trust::trust_cost(required, offered), table_one);
      EXPECT_EQ(table1.trust_cost(required, offered), table_one);
      EXPECT_EQ(clamped.trust_cost(required, offered), difference);
      EXPECT_EQ(priced_trust_cost(required, offered, table1), table_one);
      EXPECT_EQ(priced_trust_cost(required, offered, clamped), difference);
    }
  }
}

TEST(PricingProperties, EccIsAtLeastEecUnderEveryPolicy) {
  const std::vector<SchedulingPolicy> policies = {
      trust_aware_policy(), trust_unaware_policy(),
      unaware_placement_tc_priced_policy(),
      aware_placement_blanket_priced_policy()};
  for_each_seed("ECC >= EEC", [&](std::uint64_t seed) {
    Rng rng(seed);
    SecurityCostConfig config;
    config.tc_weight_pct = rng.uniform(0.0, 100.0);
    config.blanket_pct = rng.uniform(0.0, 200.0);
    config.table1_forced_f = rng.bernoulli(0.5);
    const SecurityCostModel model(config);
    const std::size_t n = 1 + rng.index(6);
    const std::size_t m = 1 + rng.index(6);
    CostMatrix eec(n, m);
    TrustCostMatrix tc(n, m);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t j = 0; j < m; ++j) {
        eec.at(r, j) = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 1e4);
        tc.at(r, j) = static_cast<int>(rng.uniform_int(0, trust::kMaxTrustCost));
        for (const CostModel cost :
             {CostModel::kNone, CostModel::kBlanket, CostModel::kTrustCost}) {
          ASSERT_GE(model.ecc(cost, eec.get(r, j), tc.get(r, j)),
                    eec.get(r, j));
        }
      }
    }
    const SchedulingProblem base(eec, tc, policies.front(), model);
    for (const SchedulingPolicy& policy : policies) {
      const SchedulingProblem p = base.with_policy(policy);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t j = 0; j < m; ++j) {
          ASSERT_GE(p.decision_cost(r, j), eec.get(r, j)) << policy.name;
          ASSERT_GE(p.actual_cost(r, j), eec.get(r, j)) << policy.name;
        }
      }
    }
  });
}

TEST(PricingProperties, OfferedLevelIsMonotoneInGamma) {
  const SecurityCostModel model;
  for_each_seed("monotone quantization", [&](std::uint64_t seed) {
    Rng rng(seed);
    // Scores beyond [1, 6] too: quantization clamps them.
    double lo = rng.uniform(-1.0, 8.0);
    double hi = rng.uniform(-1.0, 8.0);
    if (hi < lo) std::swap(lo, hi);
    const TrustLevel q_lo = trust::quantize_offered_level(lo);
    const TrustLevel q_hi = trust::quantize_offered_level(hi);
    ASSERT_LE(trust::to_numeric(q_lo), trust::to_numeric(q_hi))
        << lo << " vs " << hi;
    ASSERT_LE(trust::to_numeric(q_hi), trust::to_numeric(trust::kMaxOfferedLevel));
    ASSERT_LE(trust::to_numeric(trust::quantize_level(lo)),
              trust::to_numeric(trust::quantize_level(hi)));
    // A higher offered level never costs more.
    const TrustLevel rtl = trust::level_from_numeric(
        static_cast<int>(rng.uniform_int(1, 6)));
    ASSERT_GE(priced_trust_cost(rtl, q_lo, model),
              priced_trust_cost(rtl, q_hi, model));
  });
}

TEST(PricingProperties, AuctionPriceIsWithinTheBudgetAndAtLeastTheWinningAsk) {
  const std::vector<SchedulingPolicy> policies = {trust_aware_policy(),
                                                  trust_unaware_policy()};
  const econ::EconomyConfig economy;
  std::size_t served_with_budget = 0;
  std::size_t served_without_budget = 0;
  for_each_seed("auction price bounds", [&](std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.index(30);
    const std::size_t m = 1 + rng.index(8);
    CostMatrix eec(n, m);
    TrustCostMatrix tc(n, m);
    std::vector<grid::Request> requests(n);
    std::vector<double> arrivals(n);
    for (std::size_t r = 0; r < n; ++r) {
      arrivals[r] = rng.uniform(0.0, 100.0);
      requests[r].arrival_time = arrivals[r];
      for (std::size_t j = 0; j < m; ++j) {
        eec.at(r, j) = rng.uniform(1.0, 100.0);
        tc.at(r, j) = static_cast<int>(rng.uniform_int(0, trust::kMaxTrustCost));
      }
    }
    const std::vector<double> rates = econ::draw_base_rates(economy, m, rng);
    econ::draw_qos_terms(requests, eec, rates, economy, rng);
    for (grid::Request& request : requests) {
      if (rng.bernoulli(0.3)) request.budget = 0.0;  // no reserve
    }
    const SchedulingProblem base(eec, tc, policies[rng.index(policies.size())],
                                 SecurityCostModel{}, arrivals);
    const econ::MarketProblem market(base, requests, rates);
    const econ::MarketResult result =
        econ::run_market(market, econ::MechanismKind::kAuction);
    ASSERT_EQ(result.counters.budget_overruns, 0u);
    for (std::size_t r = 0; r < n; ++r) {
      const econ::AllocationOutcome& outcome = result.outcomes[r];
      if (!outcome.served) continue;
      if (requests[r].has_budget()) {
        ASSERT_LE(outcome.spend, requests[r].budget) << "request " << r;
        ++served_with_budget;
      } else {
        ++served_without_budget;
      }
      ASSERT_GE(outcome.spend, market.decision_price(r, outcome.machine))
          << "request " << r;
    }
  });
  // Both kinds of buyer were served, so neither bound held vacuously.
  EXPECT_GT(served_with_budget, 0u);
  EXPECT_GT(served_without_budget, 0u);
}

}  // namespace
}  // namespace gridtrust::sched
