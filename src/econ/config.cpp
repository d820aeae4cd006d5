#include "econ/config.hpp"

#include "common/error.hpp"

namespace gridtrust::econ {

PricingKind pricing_from_string(const std::string& name) {
  if (name == "flat") return PricingKind::kFlat;
  if (name == "commodity") return PricingKind::kCommodity;
  if (name == "trust") return PricingKind::kTrustWeighted;
  GT_REQUIRE(false, "unknown pricing model: '" + name +
                        "' (expected flat/commodity/trust)");
  return PricingKind::kFlat;  // unreachable
}

MechanismKind mechanism_from_string(const std::string& name) {
  if (name == "posted-cost") return MechanismKind::kPostedCost;
  if (name == "posted-time") return MechanismKind::kPostedTime;
  if (name == "auction") return MechanismKind::kAuction;
  GT_REQUIRE(false, "unknown market mechanism: '" + name +
                        "' (expected posted-cost/posted-time/auction)");
  return MechanismKind::kPostedCost;  // unreachable
}

void EconomyConfig::validate() const {
  if (!enabled) return;
  pricing_from_string(pricing);     // throws with the naming message
  mechanism_from_string(mechanism);
  GT_REQUIRE(base_rate > 0.0, "economy.base_rate: must be positive");
  GT_REQUIRE(rate_spread >= 0.0 && rate_spread < 1.0,
             "economy.rate_spread: must be in [0, 1)");
  GT_REQUIRE(commodity_elasticity >= 0.0,
             "economy.commodity_elasticity: must be non-negative");
  GT_REQUIRE(target_utilization > 0.0 && target_utilization <= 1.0,
             "economy.target_utilization: must be in (0, 1]");
  GT_REQUIRE(min_price_factor > 0.0 &&
                 min_price_factor <= max_price_factor,
             "economy.min/max_price_factor: need 0 < min <= max");
  GT_REQUIRE(trust_premium_pct >= 0.0 && trust_premium_pct < 100.0,
             "economy.trust_premium_pct: must be in [0, 100)");
  GT_REQUIRE(deadline_slack_lo >= 1.0 &&
                 deadline_slack_lo <= deadline_slack_hi,
             "economy.deadline_slack: need 1 <= lo <= hi");
  GT_REQUIRE(budget_factor_lo > 0.0 && budget_factor_lo <= budget_factor_hi,
             "economy.budget_factor: need 0 < lo <= hi");
  GT_REQUIRE(valuation_markup_lo >= 1.0 &&
                 valuation_markup_lo <= valuation_markup_hi,
             "economy.valuation_markup: need 1 <= lo <= hi");
}

EconCounters& EconCounters::operator+=(const EconCounters& other) {
  served += other.served;
  rejected_budget += other.rejected_budget;
  rejected_deadline += other.rejected_deadline;
  budget_overruns += other.budget_overruns;
  deadline_misses += other.deadline_misses;
  return *this;
}

void EconCounters::to_report(obs::RunReport& report) const {
  report.set_count("econ.served", served);
  report.set_count("econ.rejected_budget", rejected_budget);
  report.set_count("econ.rejected_deadline", rejected_deadline);
  report.set_count("econ.budget_overruns", budget_overruns);
  report.set_count("econ.deadline_misses", deadline_misses);
}

}  // namespace gridtrust::econ
