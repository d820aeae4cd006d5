// Closed-loop campaigns: adversarial tournaments and grid markets.
//
// Both campaign kinds replay the closed-loop TRMS of §2.2 and Fig. 1 on a
// DES clock — generate -> schedule or clear -> observe -> refresh — while
// the scenario's CampaignConfig perturbs it: adversarial domains misbehave
// per their BehaviorEngine strategy, a FaultInjector crashes and slows
// machines and drops or delays recommendation reports as first-class
// "chaos_fault" events, and collusive alliances forge recommendations
// through the very path the paper's recommender factor R is designed to
// police.  One round loop runs both; they differ only in the round body.
//
// run_campaign maps each round with the scenario's TRMS heuristic and
// answers the robustness question the clean experiments cannot: how
// quickly does the trust machinery *detect* misbehaving domains (detection
// latency, misclassification rate), and how much of the damage does
// trust-aware scheduling absorb (true trust cost and makespan)?
//
// run_market_campaign replaces the cost-minimizing mapper with a market:
// machines post per-second rates from the scenario's PriceModel, requests
// carry drawn deadlines / budgets / valuations, and one of the run_market
// mechanisms allocates.  After every round the price model folds in
// realized utilization and the table's current trust levels, closing a
// second loop: trust moves prices, prices move placements, placements
// generate the evidence trust is formed from.  A ballot-stuffing cartel
// thereby buys a price premium (cartel rates over honest rates) until the
// recommender factor claws it back.
//
// Everything is a pure function of (scenario, config, seed).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/config.hpp"
#include "econ/config.hpp"
#include "obs/report.hpp"
#include "sim/experiment.hpp"
#include "trust/trust_engine.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::sim {

/// How a campaign's closed loop runs (the adversarial knobs live in the
/// scenario's CampaignConfig, the economic ones in its EconomyConfig).
struct RoundConfig {
  /// Rounds; each lasts round_period seconds of DES time.
  std::size_t rounds = 16;
  std::size_t tasks_per_round = 40;
  double round_period = 60.0;
  /// Trust-aware (TC-priced, table-driven) vs trust-unaware (EEC-only
  /// decisions, blanket security) arm.
  bool trust_aware = true;
  /// When false the table never updates (ablation: how much of the
  /// robustness comes from trust *evolution* rather than trust *pricing*).
  bool adaptive = true;
  /// Every table entry starts here — strangers get the benefit of the doubt,
  /// which is exactly what whitewashing exploits.
  trust::TrustLevel initial_level = trust::TrustLevel::kE;
  /// Observations required before an agent may update a table entry.
  std::uint64_t min_transactions = 3;
  trust::TrustEngineConfig engine;
  /// Latent conduct means of domains without an adversary spec.
  double honest_rd_mean = 5.4;
  double honest_cd_mean = 5.2;
  /// Observation noise around the latent conduct mean.
  double conduct_sigma = 0.3;
  /// Read-replica staleness: §3.1 lets domains read replicas of the central
  /// table.  Round k's scheduler reads the table as it stood at the start
  /// of round k - replica_staleness_rounds; the agents always write the
  /// master, and misclassification, whitewashing and market prices read
  /// the master too.  0 reads the master directly.
  std::size_t replica_staleness_rounds = 0;
};

/// Per-round robustness metrics.
struct CampaignRoundMetrics {
  std::size_t round = 0;
  double makespan = 0.0;
  /// Mean trust cost priced against each chosen domain's *true* conduct this
  /// round — what the placements actually expose, whatever the table says.
  double mean_true_trust_cost = 0.0;
  /// Mean trust cost the table believed for the same placements.
  double mean_table_trust_cost = 0.0;
  /// Mean residual (uncovered) exposure: the ETS supplement protects the
  /// gap between the required level and the level the scheduler's table
  /// offers, so whatever trust that table over-credits relative to the
  /// hosting domain's true conduct mean c this round stays unprotected:
  ///   residual = max(0, min(RTL, OTL_table) - c).
  /// This is the quantity an adaptive table drives to zero.
  double mean_residual_exposure = 0.0;
  /// Residual exposure over requests from non-adversarial client domains
  /// only; equals mean_residual_exposure when no client domain is
  /// adversarial.  The victim-side metric for collusion studies.
  double mean_residual_exposure_honest = 0.0;
  /// Fraction of sensitive requests (effective RTL >= D) placed on a
  /// resource domain whose true conduct mean this round is below 3.
  double misplaced_sensitive_fraction = 0.0;
  /// Fraction of resource domains whose adversary label the table gets
  /// wrong (believed mean level < 3 <=> ground-truth adversarial).
  double misclassification_rate = 0.0;
  std::size_t table_updates = 0;
  /// Machines inside a crash window when the round was scheduled.
  std::size_t machines_down = 0;
};

/// Outcome of one campaign.
struct CampaignResult {
  std::vector<CampaignRoundMetrics> rounds;
  chaos::ChaosCounters counters;
  /// First round from which the misclassification rate stays zero;
  /// -1 when the table never converges on the ground truth.
  int detection_latency_rounds = -1;
  /// Means over the last half of the rounds (the learned steady state).
  double steady_true_trust_cost = 0.0;
  double steady_makespan = 0.0;
  double steady_misclassification = 0.0;
  trust::TrustLevelTable final_table{1, 1, 1};
  std::uint64_t transactions = 0;
  /// Which reputation backend formed trust (the scenario's selection).
  std::string reputation_backend = "gamma";
  /// The backend's own counters (gamma_evals, purged_recommendations,
  /// rule_firings, ...) snapshotted at campaign end.
  std::vector<std::pair<std::string, std::uint64_t>> backend_counters;

  /// Scalars as a uniform obs::RunReport: rounds, detection_latency_rounds,
  /// steady_true_trust_cost, steady_makespan, steady_misclassification,
  /// transactions, the chaos.* counters, plus one
  /// `trust.<backend>.<counter>` entry per backend counter.
  obs::RunReport report() const;
};

/// Runs one campaign: draws the topology from `scenario` (its `chaos` field
/// supplies adversaries and faults; empty means a clean control run), then
/// maps `config.rounds` rounds with the scenario's TRMS heuristic.
/// Identical (scenario, config, seed) triples produce identical results.
///
/// Trust-evolution studies describe their domains through the same inputs:
/// a fixed conduct mean is chaos::fixed_conduct, a compromise with later
/// remediation is a kOscillating spec, a colluding client domain is a
/// kCollusive pair, and the pooled-Beta table is the "beta" reputation
/// backend.
CampaignResult run_campaign(const Scenario& scenario,
                            const RoundConfig& config, std::uint64_t seed);

/// Per-round market metrics.
struct MarketRoundMetrics {
  std::size_t round = 0;
  std::size_t served = 0;
  std::size_t rejected = 0;
  double total_spend = 0.0;
  double welfare = 0.0;
  double makespan = 0.0;
  /// sum(rate) / sum(base rate) *after* this round's price update — the
  /// price level the next round will trade at.
  double price_index = 0.0;
  /// Mean rate of machines in ground-truth adversarial domains over the
  /// mean rate of honest-domain machines; 1.0 when either set is empty.
  /// Under trust pricing an undetected cartel holds this at or above 1.
  double adversary_premium = 1.0;
  std::size_t budget_overruns = 0;
  std::size_t deadline_misses = 0;
};

/// Outcome of one market campaign.
struct MarketCampaignResult {
  std::vector<MarketRoundMetrics> rounds;
  econ::EconCounters counters;
  /// Requests served over requests offered, whole campaign.
  double served_fraction = 0.0;
  /// Budget overruns / deadline misses per *served* request.
  double budget_overrun_rate = 0.0;
  double deadline_miss_rate = 0.0;
  /// Means over the last half of the rounds (the learned steady state).
  double steady_spend = 0.0;
  double steady_welfare = 0.0;
  double steady_price_index = 0.0;
  double steady_adversary_premium = 0.0;
  std::uint64_t transactions = 0;
  /// Which reputation backend, price model, and mechanism ran.
  std::string reputation_backend = "gamma";
  std::string pricing = "flat";
  std::string mechanism = "posted-cost";

  /// Scalars as a uniform obs::RunReport: rounds, served_fraction,
  /// budget_overrun_rate, deadline_miss_rate, the steady_* means,
  /// transactions, and the econ.* counters.
  obs::RunReport report() const;
};

/// Runs one market campaign over `scenario` (whose economy must be
/// enabled; its `chaos` field supplies adversaries and faults, empty means
/// an honest market).  Only served requests generate trust evidence.
/// Identical (scenario, config, seed) triples produce identical results.
MarketCampaignResult run_market_campaign(const Scenario& scenario,
                                         const RoundConfig& config,
                                         std::uint64_t seed);

}  // namespace gridtrust::sim
