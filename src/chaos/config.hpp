// Campaign configuration (gridtrust::chaos).
//
// CampaignConfig is the declarative part of the chaos subsystem: which
// domains misbehave and which faults fire.  It rides inside sim::Scenario
// (see ScenarioBuilder::with_adversaries / with_faults), so the same
// scenario object drives clean runs, fault-perturbed static experiments,
// and full adversarial campaigns.  An empty config is inert by
// construction: the clean paths never even look at it, so results stay
// bit-identical to pre-chaos behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/behavior.hpp"
#include "chaos/faults.hpp"
#include "obs/report.hpp"

namespace gridtrust::chaos {

/// Everything a chaos campaign injects into an otherwise-clean scenario.
struct CampaignConfig {
  std::vector<AdversarySpec> adversaries;
  std::vector<FaultSpec> faults;
  /// Seconds added to a crashed machine's execution cost: the machine stays
  /// feasible but maximally unattractive to cost-driven heuristics.  Finite
  /// and positive (the penalised EEC must stay finite).
  double crash_penalty = 1e6;

  /// True when the config perturbs nothing.
  bool empty() const { return adversaries.empty() && faults.empty(); }

  /// Validates parameter ranges of every spec (domain indices are checked
  /// later, against the drawn grid).  Throws PreconditionError.
  void validate() const;
};

/// Adversary and fault counters, surfaced in RunReports under "chaos.*".
/// Mirrored as process-wide obs counters of the same names when a metrics
/// registry is installed.
struct ChaosCounters {
  std::uint64_t faults_injected = 0;
  /// Observations taken while the hosting domain was in a misbehaving
  /// phase — outcomes an honest domain would have passed.
  std::uint64_t outcomes_flipped = 0;
  std::uint64_t recommendations_forged = 0;
  std::uint64_t recommendations_dropped = 0;
  std::uint64_t recommendations_delayed = 0;
  std::uint64_t whitewash_resets = 0;

  /// Writes the counters into `report` under "chaos.<name>" keys.
  void to_report(obs::RunReport& report) const;
};

}  // namespace gridtrust::chaos
