// Trust-aware vs trust-unaware experiments (Tables 4-9).
//
// One paired replication draws a random Grid topology, trust-level table,
// EEC matrix, and request stream from one RNG stream, then runs the RMS
// twice on the *same* instance: once trust-unaware, once trust-aware
// (common random numbers).  The lab engine replicates and aggregates that
// unit (lab/catalog.hpp, lab::finalize_paired).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/config.hpp"
#include "econ/config.hpp"
#include "grid/grid_system.hpp"
#include "obs/report.hpp"
#include "sim/trm_simulation.hpp"
#include "trust/reputation_policy.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"

namespace gridtrust::sim {

/// Everything defining one experimental condition (a paper-table row pair).
struct Scenario {
  /// Requests per replication (the paper uses 50 and 100).
  std::size_t tasks = 50;
  /// Random Grid topology (defaults: 5 machines, #CD,#RD ~ U[1,4]).
  grid::RandomGridParams grid;
  /// EEC matrix class (defaults: inconsistent LoLo).
  workload::HeterogeneityParams heterogeneity;
  /// Request generation (ToAs ~ U[1,4], RTLs ~ U[A,F]).
  workload::RequestGenParams requests;
  /// Trust-table structure (default: pair-level, see DESIGN.md).
  workload::TableCorrelation table_correlation =
      workload::TableCorrelation::kPairLevel;
  /// ESC pricing (TC weight 15 %, blanket 50 %).
  sched::SecurityCostConfig security;
  /// RMS mode + heuristic + batch interval.
  TrmsConfig rms;
  /// Adversaries and faults (gridtrust::chaos).  Empty (the default) leaves
  /// every path untouched — results are bit-identical to a scenario without
  /// the field.  The static experiment path applies the machine faults to
  /// each drawn instance's EEC matrix; adversary behaviour only matters to
  /// the closed-loop campaigns (sim/campaign.hpp).
  chaos::CampaignConfig chaos;
  /// Reputation backend forming trust in closed-loop campaigns (default:
  /// "gamma", the paper's Γ engine — scenarios that never name a backend
  /// behave exactly as before).  The static experiment path draws its trust
  /// table directly and ignores this field.
  trust::ReputationBackendConfig reputation;
  /// Grid economy: prices, budgets, deadlines, market mechanism
  /// (gridtrust::econ).  Disabled (the default) is inert — no clean path
  /// reads the field, so pre-economy results are bit-identical.  Only
  /// market campaigns (sim::run_market_campaign) consume it.
  econ::EconomyConfig economy;

  Scenario() { requests.arrival_rate = 1.0; }
};

/// One fully drawn instance: topology, trust table, requests, and the
/// scheduling problem bound to a policy.  Exposed so catalog units that
/// rebind the policy (`ablation_security_policy`), attach staging
/// (sim::run_staged_paired) or run another scheduler on it (`distributed`,
/// sim::run_distributed) reuse the exact §5.3 instance-drawing procedure.
struct Instance {
  grid::GridSystem grid;
  trust::TrustLevelTable table;
  std::vector<grid::Request> requests;
  sched::SchedulingProblem problem;
  /// What the scenario's machine faults did to this instance's EEC matrix
  /// (all zero when the scenario declares no faults).
  chaos::FaultApplication faults;
};

/// Draws one instance from `scenario` using `rng` (which is advanced).
/// The problem is bound to `policy`; rebind with problem.with_policy().
Instance draw_instance(const Scenario& scenario,
                       const sched::SchedulingPolicy& policy, Rng& rng);

/// Reports one arm of a run as `<prefix>.makespan`, `.utilization_pct`,
/// `.mean_flow_time`, `.flow_time_p95` and `.batches`, in that order.
void report_arm(obs::RunReport& out, const std::string& prefix,
                const SimulationResult& run);

/// One paired replication on common random numbers: draws one instance
/// from `rep_seed`, then runs it trust-unaware and trust-aware.  Reports
/// `unaware.*` and `aware.*` (makespan, utilization_pct, mean_flow_time,
/// flow_time_p95, batches) and `makespan_diff` (unaware - aware), in that
/// order.  Scenarios with a non-empty chaos config add the chaos.* counters
/// after them.  This is the unit every paired lab sweep replicates.
obs::RunReport run_paired(const Scenario& scenario, std::uint64_t rep_seed);

}  // namespace gridtrust::sim
