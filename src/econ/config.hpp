// Economy configuration (gridtrust::econ).
//
// EconomyConfig is the declarative part of the Grid economy: how machine
// time is priced, how requests draw their QoS terms (deadline, budget,
// valuation), and which market mechanism allocates.  It rides inside
// sim::Scenario (see ScenarioBuilder::with_economy), so the same scenario
// object drives clean runs, priced tournaments, and cartel campaigns.  A
// disabled config (the default) is inert by construction: no clean path
// reads it, so results stay bit-identical to pre-economy behaviour.
//
// The model follows the economic Grid-RM line of PAPERS.md (the GridSim
// toolkit and Buyya's economic-based resource management): resources post
// prices per second of machine time, requests arrive with deadlines and
// budgets, and allocation happens through posted-price (deadline-budget-
// constrained) or auction mechanisms.  Trust enters as a price signal:
// low-trust resources must discount, high-trust resources command a
// premium.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hpp"

namespace gridtrust::econ {

/// How per-machine rates evolve over a campaign.
enum class PricingKind {
  /// Posted rates never move: every machine charges its base rate.
  kFlat,
  /// Commodity-market adjustment: a machine's rate drifts up while its
  /// utilization exceeds the target (demand outstrips supply) and down
  /// while it idles, clamped to [min_factor, max_factor] x base.
  kCommodity,
  /// Trust-weighted: the rate is base x a premium that grows with the
  /// machine's domain trust level — low-trust resources must discount to
  /// attract buyers, high-trust resources command a premium.
  kTrustWeighted,
};

/// Parses a pricing name; throws PreconditionError for unknown names.
PricingKind pricing_from_string(const std::string& name);

/// How a market allocates requests to machines.
enum class MechanismKind {
  /// Posted-price, cost-optimized (Buyya DBC cost): among the machines
  /// meeting the deadline within budget, buy the cheapest.
  kPostedCost,
  /// Posted-price, time-optimized (Buyya DBC time): among the machines
  /// within budget, buy the earliest completion.
  kPostedTime,
  /// Sealed-bid reverse auction: machines bid their posted cost, the
  /// lowest feasible bid wins, and the buyer pays the second-lowest
  /// feasible bid (Vickrey), capped by its budget as the reserve price.
  kAuction,
};

/// Parses a mechanism name; throws PreconditionError for unknown names.
MechanismKind mechanism_from_string(const std::string& name);

/// Everything defining a scenario's economy.  Disabled by default.
struct EconomyConfig {
  /// Master switch: false leaves every existing path untouched.
  bool enabled = false;

  /// Price model ("flat", "commodity", "trust").
  std::string pricing = "flat";
  /// Allocation mechanism ("posted-cost", "posted-time", "auction").
  std::string mechanism = "posted-cost";

  /// Mean posted rate in G$ per second of machine time.
  double base_rate = 1.0;
  /// Per-machine rate heterogeneity: base rates draw uniformly from
  /// base_rate x [1 - spread, 1 + spread].  0 = homogeneous pricing.
  double rate_spread = 0.25;

  // --- Commodity pricing ---
  /// Fractional rate movement per unit of excess utilization per round.
  double commodity_elasticity = 0.5;
  /// Utilization (busy / round makespan) at which a rate holds steady.
  double target_utilization = 0.5;
  /// Rate clamp as multiples of the machine's base rate.
  double min_price_factor = 0.25;
  double max_price_factor = 4.0;

  // --- Trust-weighted pricing ---
  /// Premium at the trust extremes, in percent of base: a level-6 domain
  /// charges base x (1 + premium/100), a level-1 domain must discount to
  /// base x (1 - premium/100); levels interpolate linearly.
  double trust_premium_pct = 30.0;

  // --- QoS term draws (per request) ---
  /// Deadline slack ~ U[lo, hi]: deadline = arrival + slack x best EEC.
  double deadline_slack_lo = 8.0;
  double deadline_slack_hi = 32.0;
  /// Budget factor ~ U[lo, hi]: budget = factor x cheapest posted cost of
  /// the request at its base rates.
  double budget_factor_lo = 1.0;
  double budget_factor_hi = 3.0;
  /// Valuation markup ~ U[lo, hi]: valuation = markup x budget (consumer
  /// surplus headroom; welfare = valuation - spend for served requests).
  double valuation_markup_lo = 1.0;
  double valuation_markup_hi = 1.5;

  /// Validates ranges; throws PreconditionError naming the field.
  void validate() const;
};

/// Market accounting, surfaced in RunReports under "econ.*".  Mirrored as
/// process-wide obs counters of the same names when a metrics registry is
/// installed.
struct EconCounters {
  /// Requests allocated a machine.
  std::uint64_t served = 0;
  /// Requests no machine could serve within budget (decision view).
  std::uint64_t rejected_budget = 0;
  /// Requests no machine could serve by the deadline (decision view).
  std::uint64_t rejected_deadline = 0;
  /// Served requests whose realized spend exceeded their budget — the
  /// decision model underestimated the incurred cost.
  std::uint64_t budget_overruns = 0;
  /// Served requests completing after their deadline.
  std::uint64_t deadline_misses = 0;

  EconCounters& operator+=(const EconCounters& other);

  /// Writes the counters into `report` under "econ.<name>" keys.
  void to_report(obs::RunReport& report) const;
};

}  // namespace gridtrust::econ
