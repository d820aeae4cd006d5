// Unit and integration tests for the Grid economy subsystem (src/econ):
// configuration validation, the three price models, hand-built market
// clearings under every mechanism (budget/deadline feasibility, rejection
// classification, Vickrey pricing, trust-unaware metering risk), the QoS
// term draws, and the closed-loop market campaign's determinism.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "chaos/behavior.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "econ/config.hpp"
#include "econ/market.hpp"
#include "econ/price_model.hpp"
#include "grid/request.hpp"
#include "lab/catalog.hpp"
#include "obs/metrics.hpp"
#include "report_text.hpp"
#include "sched/problem.hpp"
#include "sched/security_model.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario_builder.hpp"

namespace gridtrust::econ {
namespace {

/// A scheduling problem from an explicit EEC table with zero trust costs:
/// under the trust-aware policy decision and actual costs both equal the
/// EEC, so market arithmetic is exact.
sched::SchedulingProblem make_problem(
    const std::vector<std::vector<double>>& eec_rows,
    sched::SchedulingPolicy policy = sched::trust_aware_policy(),
    std::vector<double> arrivals = {}) {
  const std::size_t rows = eec_rows.size();
  const std::size_t cols = eec_rows.front().size();
  sched::CostMatrix eec(rows, cols);
  sched::TrustCostMatrix tc(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t m = 0; m < cols; ++m) {
      eec.at(r, m) = eec_rows[r][m];
      tc.at(r, m) = 0;
    }
  }
  return sched::SchedulingProblem(std::move(eec), std::move(tc), policy,
                                  sched::SecurityCostModel{},
                                  std::move(arrivals));
}

/// `n` requests with the given QoS terms (0 = unconstrained).
std::vector<grid::Request> make_requests(std::size_t n, double deadline = 0.0,
                                         double budget = 0.0,
                                         double valuation = 0.0) {
  std::vector<grid::Request> requests(n);
  for (std::size_t r = 0; r < n; ++r) {
    requests[r].id = r;
    requests[r].deadline = deadline;
    requests[r].budget = budget;
    requests[r].valuation = valuation;
  }
  return requests;
}

// --------------------------------------------------------- configuration

TEST(EconConfig, NamesRoundTrip) {
  EXPECT_EQ(pricing_from_string("flat"), PricingKind::kFlat);
  EXPECT_EQ(pricing_from_string("commodity"), PricingKind::kCommodity);
  EXPECT_EQ(pricing_from_string("trust"), PricingKind::kTrustWeighted);
  EXPECT_EQ(mechanism_from_string("posted-cost"), MechanismKind::kPostedCost);
  EXPECT_EQ(mechanism_from_string("posted-time"), MechanismKind::kPostedTime);
  EXPECT_EQ(mechanism_from_string("auction"), MechanismKind::kAuction);
  EXPECT_THROW((void)pricing_from_string("dutch"), PreconditionError);
  EXPECT_THROW((void)mechanism_from_string("english"), PreconditionError);
}

TEST(EconConfig, ValidateChecksRangesOnlyWhenEnabled) {
  EconomyConfig config;
  config.base_rate = -1.0;  // nonsense, but the economy is off
  EXPECT_NO_THROW(config.validate());

  config = EconomyConfig{};
  config.enabled = true;
  EXPECT_NO_THROW(config.validate());

  config.pricing = "dutch";
  EXPECT_THROW(config.validate(), PreconditionError);
  config = EconomyConfig{};
  config.enabled = true;
  config.base_rate = 0.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = EconomyConfig{};
  config.enabled = true;
  config.budget_factor_lo = 2.0;
  config.budget_factor_hi = 1.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = EconomyConfig{};
  config.enabled = true;
  config.min_price_factor = 5.0;  // above max_price_factor
  EXPECT_THROW(config.validate(), PreconditionError);
}

// ---------------------------------------------------------- price models

TEST(PriceModels, FlatRatesNeverMove) {
  EconomyConfig config;
  auto model = make_price_model(config, {1.0, 2.0});
  EXPECT_EQ(model->name(), "flat");
  RoundSignals signals{{1.0, 0.0}, {6.0, 1.0}};
  model->update_round(signals);
  model->update_round(signals);
  EXPECT_EQ(model->rate(0), 1.0);
  EXPECT_EQ(model->rate(1), 2.0);
  EXPECT_EQ(model->price_index(), 1.0);
}

TEST(PriceModels, CommodityCompoundsAndClamps) {
  EconomyConfig config;
  config.pricing = "commodity";
  config.commodity_elasticity = 0.5;
  config.target_utilization = 0.5;
  config.min_price_factor = 0.25;
  config.max_price_factor = 4.0;
  auto model = make_price_model(config, {2.0, 2.0});
  // Machine 0 runs flat out (+25%/round compounding), machine 1 idles.
  const RoundSignals signals{{1.0, 0.0}, {3.5, 3.5}};
  model->update_round(signals);
  EXPECT_DOUBLE_EQ(model->rate(0), 2.0 * 1.25);
  EXPECT_DOUBLE_EQ(model->rate(1), 2.0 * 0.75);
  model->update_round(signals);
  EXPECT_DOUBLE_EQ(model->rate(0), 2.0 * 1.25 * 1.25);
  // Many more rounds pin both machines at the clamp.
  for (int round = 0; round < 50; ++round) model->update_round(signals);
  EXPECT_DOUBLE_EQ(model->rate(0), 2.0 * config.max_price_factor);
  EXPECT_DOUBLE_EQ(model->rate(1), 2.0 * config.min_price_factor);
}

TEST(PriceModels, TrustPremiumIsLinearAndDoesNotCompound) {
  EconomyConfig config;
  config.pricing = "trust";
  config.trust_premium_pct = 30.0;
  auto model = make_price_model(config, {10.0, 10.0, 10.0});
  const RoundSignals signals{{0.0, 0.0, 0.0}, {6.0, 1.0, 3.5}};
  model->update_round(signals);
  EXPECT_DOUBLE_EQ(model->rate(0), 13.0);  // full premium at level 6
  EXPECT_DOUBLE_EQ(model->rate(1), 7.0);   // full discount at level 1
  EXPECT_DOUBLE_EQ(model->rate(2), 10.0);  // midpoint prices at base
  // Re-applying the same table must not compound the premium.
  model->update_round(signals);
  EXPECT_DOUBLE_EQ(model->rate(0), 13.0);
  // A recovered domain reprices immediately.
  model->update_round(RoundSignals{{0.0, 0.0, 0.0}, {6.0, 6.0, 6.0}});
  EXPECT_DOUBLE_EQ(model->rate(1), 13.0);
}

TEST(PriceModels, DrawBaseRatesIsBoundedAndDeterministic) {
  EconomyConfig config;
  config.base_rate = 2.0;
  config.rate_spread = 0.25;
  Rng a(7);
  Rng b(7);
  const auto rates_a = draw_base_rates(config, 16, a);
  const auto rates_b = draw_base_rates(config, 16, b);
  EXPECT_EQ(rates_a, rates_b);
  for (const double rate : rates_a) {
    EXPECT_GE(rate, 2.0 * 0.75);
    EXPECT_LE(rate, 2.0 * 1.25);
  }
  config.rate_spread = 0.0;
  Rng c(7);
  for (const double rate : draw_base_rates(config, 4, c)) {
    EXPECT_DOUBLE_EQ(rate, 2.0);
  }
}

TEST(PriceModels, ConstructionRejectsBadInputs) {
  EconomyConfig config;
  EXPECT_THROW((void)make_price_model(config, {}), PreconditionError);
  EXPECT_THROW((void)make_price_model(config, {1.0, 0.0}), PreconditionError);
  config.pricing = "dutch";
  EXPECT_THROW((void)make_price_model(config, {1.0}), PreconditionError);
}

// -------------------------------------------------------- market clearing

TEST(Market, ProblemCtorValidatesShapes) {
  const auto base = make_problem({{1.0, 2.0}});
  EXPECT_THROW(MarketProblem(base, make_requests(2), {1.0, 1.0}),
               PreconditionError);
  EXPECT_THROW(MarketProblem(base, make_requests(1), {1.0}),
               PreconditionError);
  EXPECT_THROW(MarketProblem(base, make_requests(1), {1.0, 0.0}),
               PreconditionError);
}

TEST(Market, PostedCostBuysTheCheapestFeasibleMachine) {
  const auto base = make_problem({{4.0, 2.0, 3.0}});
  const auto requests = make_requests(1, 0.0, 0.0, /*valuation=*/10.0);
  const MarketProblem market(base, requests, {1.0, 1.0, 1.0});
  const MarketResult result = run_market(market, MechanismKind::kPostedCost);
  ASSERT_TRUE(result.outcomes[0].served);
  EXPECT_EQ(result.outcomes[0].machine, 1u);
  EXPECT_DOUBLE_EQ(result.outcomes[0].spend, 2.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion, 2.0);
  EXPECT_EQ(result.counters.served, 1u);
  EXPECT_DOUBLE_EQ(result.total_spend, 2.0);
  EXPECT_DOUBLE_EQ(result.welfare, 8.0);
}

TEST(Market, PostedTimeBuysTheEarliestCompletion) {
  // Machine 1 is faster but 10x more expensive.
  const auto base = make_problem({{3.0, 2.0}});
  const auto requests = make_requests(1);
  const MarketProblem market(base, requests, {1.0, 10.0});
  const auto by_time = run_market(market, MechanismKind::kPostedTime);
  EXPECT_EQ(by_time.outcomes[0].machine, 1u);
  EXPECT_DOUBLE_EQ(by_time.outcomes[0].spend, 20.0);
  const auto by_cost = run_market(market, MechanismKind::kPostedCost);
  EXPECT_EQ(by_cost.outcomes[0].machine, 0u);
  EXPECT_DOUBLE_EQ(by_cost.outcomes[0].spend, 3.0);
}

TEST(Market, ClassifiesRejectionsAsBudgetOrDeadlineBound) {
  const auto base = make_problem({{10.0, 20.0}});
  // Budget admits no machine (cheapest decision price is 10).
  {
    const MarketProblem market(base, make_requests(1, 0.0, 5.0), {1.0, 1.0});
    const auto result = run_market(market, MechanismKind::kPostedCost);
    EXPECT_FALSE(result.outcomes[0].served);
    EXPECT_EQ(result.counters.rejected_budget, 1u);
    EXPECT_EQ(result.counters.rejected_deadline, 0u);
  }
  // Budget admits machine 0, but no machine meets the deadline.
  {
    const MarketProblem market(base, make_requests(1, 4.0, 15.0), {1.0, 1.0});
    const auto result = run_market(market, MechanismKind::kPostedCost);
    EXPECT_FALSE(result.outcomes[0].served);
    EXPECT_EQ(result.counters.rejected_budget, 0u);
    EXPECT_EQ(result.counters.rejected_deadline, 1u);
  }
}

TEST(Market, TrustUnawarePostedPricingCarriesMeteringRisk) {
  // Trust-unaware: decisions on bare EEC (10), metered with 50% blanket
  // security (15).  Budget 12 and deadline 12 both look satisfiable at
  // decision time and both are blown at metering time.
  const auto base =
      make_problem({{10.0}}, sched::trust_unaware_policy());
  const auto requests = make_requests(1, /*deadline=*/12.0, /*budget=*/12.0);
  const MarketProblem market(base, requests, {1.0});
  const auto result = run_market(market, MechanismKind::kPostedCost);
  ASSERT_TRUE(result.outcomes[0].served);
  EXPECT_DOUBLE_EQ(result.outcomes[0].spend, 15.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion, 15.0);
  EXPECT_EQ(result.counters.budget_overruns, 1u);
  EXPECT_EQ(result.counters.deadline_misses, 1u);
}

TEST(Market, AuctionChargesTheSecondLowestAsk) {
  const auto base = make_problem({{2.0, 3.0, 5.0}});
  const auto requests = make_requests(1, 0.0, 0.0, /*valuation=*/10.0);
  const MarketProblem market(base, requests, {1.0, 1.0, 1.0});
  const auto result = run_market(market, MechanismKind::kAuction);
  ASSERT_TRUE(result.outcomes[0].served);
  EXPECT_EQ(result.outcomes[0].machine, 0u);
  EXPECT_DOUBLE_EQ(result.outcomes[0].spend, 3.0);  // Vickrey
  EXPECT_DOUBLE_EQ(result.welfare, 7.0);
}

TEST(Market, AuctionClearingIsCappedByTheBudgetReserve) {
  // Second-lowest ask (8) exceeds the budget (6): the clearing price
  // clamps to the reserve, so auction buyers never overrun.
  const auto base = make_problem({{5.0, 8.0}});
  const MarketProblem market(base, make_requests(1, 0.0, 6.0), {1.0, 1.0});
  const auto result = run_market(market, MechanismKind::kAuction);
  ASSERT_TRUE(result.outcomes[0].served);
  EXPECT_DOUBLE_EQ(result.outcomes[0].spend, 6.0);
  EXPECT_EQ(result.counters.budget_overruns, 0u);
}

TEST(Market, SoleBidderCollectsReserveOrOwnAsk) {
  // Machine 1 is priced out by the budget, leaving a sole bidder, which
  // collects the buyer's full budget as the reserve price.
  const auto base = make_problem({{5.0, 50.0}});
  {
    const MarketProblem market(base, make_requests(1, 0.0, 40.0), {1.0, 1.0});
    const auto result = run_market(market, MechanismKind::kAuction);
    ASSERT_TRUE(result.outcomes[0].served);
    EXPECT_EQ(result.outcomes[0].machine, 0u);
    EXPECT_DOUBLE_EQ(result.outcomes[0].spend, 40.0);
  }
  // With no budget at all a sole bidder can only charge its own ask.
  {
    const auto solo = make_problem({{5.0}});
    const MarketProblem market(solo, make_requests(1), {1.0});
    const auto result = run_market(market, MechanismKind::kAuction);
    EXPECT_DOUBLE_EQ(result.outcomes[0].spend, 5.0);
  }
}

TEST(Market, RequestsQueueInArrivalOrder) {
  // One machine, two requests: the later arrival waits for the earlier.
  const auto base = make_problem({{5.0}, {5.0}},
                                 sched::trust_aware_policy(), {0.0, 1.0});
  const MarketProblem market(base, make_requests(2), {1.0});
  const auto result = run_market(market, MechanismKind::kPostedCost);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion, 5.0);
  EXPECT_DOUBLE_EQ(result.outcomes[1].completion, 10.0);
}

// ----------------------------------------------------------- QoS draws

TEST(Market, QoSTermsAnchorToTheCheapestMachine) {
  EconomyConfig config;
  config.deadline_slack_lo = config.deadline_slack_hi = 10.0;
  config.budget_factor_lo = config.budget_factor_hi = 2.0;
  config.valuation_markup_lo = config.valuation_markup_hi = 1.25;
  sched::CostMatrix eec(1, 2);
  eec.at(0, 0) = 2.0;  // 2s at rate 3 = G$6
  eec.at(0, 1) = 4.0;  // 4s at rate 1 = G$4 (cheapest in money)
  std::vector<grid::Request> requests(1);
  requests[0].arrival_time = 3.0;
  Rng rng(1);
  draw_qos_terms(requests, eec, {3.0, 1.0}, config, rng);
  EXPECT_DOUBLE_EQ(requests[0].deadline, 3.0 + 10.0 * 2.0);  // best EEC
  EXPECT_DOUBLE_EQ(requests[0].budget, 2.0 * 4.0);  // cheapest posted cost
  EXPECT_DOUBLE_EQ(requests[0].valuation, 1.25 * 8.0);
  EXPECT_TRUE(requests[0].has_deadline());
  EXPECT_TRUE(requests[0].has_budget());
}

TEST(Market, QoSDrawValidatesShapesAndIsDeterministic) {
  EconomyConfig config;
  sched::CostMatrix eec(2, 2);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t m = 0; m < 2; ++m) {
      eec.at(r, m) = 1.0 + static_cast<double>(r + m);
    }
  }
  auto requests = make_requests(2);
  Rng rng_bad(1);
  EXPECT_THROW(draw_qos_terms(requests, eec, {1.0}, config, rng_bad),
               PreconditionError);
  auto a = make_requests(2);
  auto b = make_requests(2);
  Rng rng_a(9);
  Rng rng_b(9);
  draw_qos_terms(a, eec, {1.0, 1.0}, config, rng_a);
  draw_qos_terms(b, eec, {1.0, 1.0}, config, rng_b);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(a[r].deadline, b[r].deadline);
    EXPECT_EQ(a[r].budget, b[r].budget);
    EXPECT_EQ(a[r].valuation, b[r].valuation);
  }
}

// ------------------------------------------------------ market campaigns

sim::Scenario market_scenario(const std::string& pricing,
                              const std::string& mechanism) {
  EconomyConfig economy;
  economy.pricing = pricing;
  economy.mechanism = mechanism;
  return sim::ScenarioBuilder()
      .machines(4)
      .resource_domains(4, 4)
      .client_domains(2, 2)
      .heuristic("mct")
      .inconsistent()
      .with_economy(economy)
      .build();
}

TEST(MarketCampaign, RequiresAnEnabledEconomy) {
  const sim::Scenario scenario =
      sim::ScenarioBuilder().tasks(4).heuristic("mct").build();
  ASSERT_FALSE(scenario.economy.enabled);
  EXPECT_THROW(
      (void)sim::run_market_campaign(scenario, sim::RoundConfig{}, 1),
      PreconditionError);
}

TEST(MarketCampaign, IsDeterministicAndAccountsForEveryRequest) {
  const sim::Scenario scenario = market_scenario("trust", "auction");
  sim::RoundConfig config;
  config.rounds = 4;
  config.tasks_per_round = 8;
  const sim::MarketCampaignResult first =
      sim::run_market_campaign(scenario, config, 5);
  const sim::MarketCampaignResult again =
      sim::run_market_campaign(scenario, config, 5);
  EXPECT_EQ(testing_support::report_text(first.report()),
            testing_support::report_text(again.report()));

  ASSERT_EQ(first.rounds.size(), 4u);
  const std::uint64_t offered = 4 * 8;
  EXPECT_EQ(first.counters.served + first.counters.rejected_budget +
                first.counters.rejected_deadline,
            offered);
  EXPECT_GE(first.served_fraction, 0.0);
  EXPECT_LE(first.served_fraction, 1.0);
  EXPECT_GT(first.steady_price_index, 0.0);
  EXPECT_GT(first.transactions, 0u);
  EXPECT_EQ(first.pricing, "trust");
  EXPECT_EQ(first.mechanism, "auction");
  // Auction clearing prices are contracts: no budget overruns, ever.
  EXPECT_EQ(first.counters.budget_overruns, 0u);
}

TEST(MarketCampaign, ReportCarriesEconKeys) {
  const sim::Scenario scenario = market_scenario("commodity", "posted-cost");
  sim::RoundConfig config;
  config.rounds = 3;
  config.tasks_per_round = 6;
  const obs::RunReport report =
      sim::run_market_campaign(scenario, config, 11).report();
  for (const char* key :
       {"econ.served", "econ.rejected_budget", "econ.rejected_deadline",
        "econ.budget_overruns", "econ.deadline_misses", "served_fraction",
        "steady_price_index", "steady_welfare", "transactions"}) {
    EXPECT_TRUE(report.has(key)) << key;
  }
}

TEST(MarketCampaign, RejectsHonestMeansOffTheTrustScale) {
  const sim::Scenario scenario = market_scenario("flat", "posted-cost");
  sim::RoundConfig config;
  config.rounds = 2;
  config.tasks_per_round = 4;
  config.honest_rd_mean = 7.0;
  EXPECT_THROW((void)sim::run_market_campaign(scenario, config, 1),
               PreconditionError);
}

/// The chaos.* counters one market campaign records into a fresh registry,
/// optionally against a ballot-stuffing cartel (collusive RD 0 plus its
/// allied collusive CD 0).
std::map<std::string, double> market_chaos_counters(bool cartel) {
  sim::Scenario scenario = market_scenario("trust", "posted-cost");
  if (cartel) {
    chaos::AdversarySpec rd;
    rd.side = chaos::AdversarySide::kResourceDomain;
    rd.domain = 0;
    rd.kind = chaos::BehaviorKind::kCollusive;
    chaos::AdversarySpec cd = rd;
    cd.side = chaos::AdversarySide::kClientDomain;
    scenario.chaos.adversaries = {rd, cd};
  }
  sim::RoundConfig config;
  config.rounds = 4;
  config.tasks_per_round = 8;
  obs::MetricsRegistry registry;
  obs::install(&registry);
  (void)sim::run_market_campaign(scenario, config, 5);
  const obs::Snapshot snap = registry.snapshot();
  obs::install(nullptr);
  std::map<std::string, double> out;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with("chaos.")) out[name] = value;
  }
  return out;
}

TEST(MarketCampaign, CountsForgedReportsAndFlippedOutcomes) {
  const std::map<std::string, double> cartel = market_chaos_counters(true);
  ASSERT_TRUE(cartel.count("chaos.recommendations_forged"));
  ASSERT_TRUE(cartel.count("chaos.outcomes_flipped"));
  EXPECT_GT(cartel.at("chaos.recommendations_forged"), 0.0);
  EXPECT_GT(cartel.at("chaos.outcomes_flipped"), 0.0);
  EXPECT_TRUE(market_chaos_counters(false).empty());
}

TEST(MarketCampaign, CatalogRegistersTheMarketSpecs) {
  for (const char* name : {"market_tournament", "smoke_econ", "deadlines"}) {
    EXPECT_NE(lab::find_spec(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace gridtrust::econ
