// Fluent construction of experiment Scenarios.
//
// Scenario is a plain aggregate and stays one — existing call sites that
// fill fields directly keep working.  The builder adds two things on top:
// readable one-expression construction of a full experimental condition,
// and validation at build() time (task counts, heuristic-name-vs-mode
// agreement, parameter ranges) so a typo'd heuristic fails with a clear
// message instead of deep inside make_immediate().
//
//   const sim::Scenario s = sim::ScenarioBuilder()
//                               .tasks(100)
//                               .machines(5)
//                               .batch(30.0)
//                               .heuristic("min-min")
//                               .consistent()
//                               .build();
#pragma once

#include <string>

#include "sim/experiment.hpp"

namespace gridtrust::sim {

class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;

  /// Requests per replication (the paper uses 50 and 100).
  ScenarioBuilder& tasks(std::size_t count);

  /// Total machines in the random Grid (the paper uses 5).
  ScenarioBuilder& machines(std::size_t count);

  /// Client-domain draw range: #CD ~ U[lo, hi].
  ScenarioBuilder& client_domains(std::size_t lo, std::size_t hi);

  /// Resource-domain draw range: #RD ~ U[lo, hi].
  ScenarioBuilder& resource_domains(std::size_t lo, std::size_t hi);

  /// Heuristic name; validated against the RMS mode at build() time
  /// (immediate: olb/met/mct/...; batch: min-min/max-min/...).
  ScenarioBuilder& heuristic(std::string name);

  /// Immediate mode: each request is mapped on arrival.
  ScenarioBuilder& immediate();

  /// Batch mode with the given meta-request formation interval (seconds).
  ScenarioBuilder& batch(double interval = 30.0);

  /// Consistent LoLo EEC heterogeneity (Tables 5, 7, 9).
  ScenarioBuilder& consistent();

  /// Inconsistent LoLo EEC heterogeneity (Tables 4, 6, 8; the default).
  ScenarioBuilder& inconsistent();

  /// Full heterogeneity control for non-paper workload classes.
  ScenarioBuilder& heterogeneity(const workload::HeterogeneityParams& params);

  /// Poisson arrival rate in requests/second; 0 = all arrive at time zero.
  ScenarioBuilder& arrival_rate(double per_second);

  /// ESC percent of EEC per unit of trust cost (paper: 15).
  ScenarioBuilder& tc_weight_pct(double pct);

  /// Blanket-security ESC percent for the trust-unaware arm (paper: 50).
  ScenarioBuilder& blanket_pct(double pct);

  /// Strict Table 1 reading: RTL = F forces the maximal trust cost of 6.
  ScenarioBuilder& forced_f(bool on = true);

  /// Correlation structure of the random trust-level table.
  ScenarioBuilder& table_correlation(workload::TableCorrelation correlation);

  /// Appends adversarial domains to the scenario's chaos campaign.
  ScenarioBuilder& with_adversaries(
      const std::vector<chaos::AdversarySpec>& adversaries);

  /// Selects the reputation backend forming trust in closed-loop campaigns
  /// ("gamma", "beta", "fuzzy", "purge:<base>"; see
  /// trust/reputation_registry.hpp).  The name is validated at build()
  /// time.
  ScenarioBuilder& with_reputation_backend(std::string name);

  /// Installs a Grid economy (prices, budgets, deadlines, market mechanism;
  /// see econ/config.hpp) and enables it.  The config is range-validated at
  /// build() time.  Only market campaigns (sim::run_market_campaign) read
  /// the field — clean experiments ignore it entirely.
  ScenarioBuilder& with_economy(econ::EconomyConfig config);

  /// Validates the accumulated configuration and returns the Scenario.
  /// Throws gridtrust::PreconditionError with a field-naming message on any
  /// violation (zero tasks/machines, unknown heuristic for the mode,
  /// negative rates or percentages, inverted domain ranges, ...).
  Scenario build() const;

  /// Read access to the accumulated configuration *without* validation —
  /// for callers that branch on what has been set so far (e.g. applying a
  /// batch-interval flag only when the mode is batch).
  const Scenario& peek() const { return scenario_; }

 private:
  Scenario scenario_;
};

}  // namespace gridtrust::sim
