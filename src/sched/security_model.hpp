// Expected security cost (ESC) models (§4.1).
//
// The paper prices the security overhead of running t(r) on machine M as a
// fraction of the expected execution cost (EEC):
//
//   trust-aware RMS:   ESC = EEC · (TC · 15) / 100     (TC from Table 1)
//   trust-unaware RMS: ESC = EEC · 50 / 100            (blanket security)
//
// A scheduling policy combines two cost models: the one used when *deciding*
// a mapping and the one *actually incurred* by the chosen mapping.  The
// paper's trust-unaware scheduler decides on EEC alone (kNone) while paying
// the blanket rate; the trust-aware scheduler decides on and pays the
// TC-priced cost.
#pragma once

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "trust/ets.hpp"
#include "trust/trust_level.hpp"

namespace gridtrust::sched {

/// How the expected security cost is computed.
enum class CostModel {
  kNone,       ///< no security cost (scheduler ignores security)
  kBlanket,    ///< conservative flat rate: every task pays blanket_pct of EEC
  kTrustCost,  ///< TC-priced: EEC * (TC * tc_weight_pct) / 100
};

/// Tuning of the ESC formulas.
struct SecurityCostConfig {
  /// Percent of EEC per unit of trust cost (the paper arbitrarily picks 15).
  double tc_weight_pct = 15.0;
  /// Percent of EEC paid under blanket security (the paper uses 50).
  double blanket_pct = 50.0;
  /// When true, an RTL of F forces the maximal trust cost of 6 exactly as in
  /// Table 1.  The scheduling simulations default to the plain clamped
  /// difference RTL - OTL (see DESIGN.md interpretation notes).
  bool table1_forced_f = false;
};

/// Computes trust costs and security costs under one configuration.
class SecurityCostModel {
 public:
  explicit SecurityCostModel(SecurityCostConfig config = {});

  const SecurityCostConfig& config() const { return config_; }

  /// Trust cost for a (required, offered) level pair: either the Table 1
  /// function (forced F row) or the clamped difference, per configuration.
  /// Inline: compute_trust_costs prices every (request, machine) pair
  /// through it.
  int trust_cost(trust::TrustLevel required, trust::TrustLevel offered) const {
    if (config_.table1_forced_f) return trust::trust_cost(required, offered);
    const int gap = trust::to_numeric(required) - trust::to_numeric(offered);
    return std::clamp(gap, 0, trust::kMaxTrustCost);
  }

  /// ESC of a task with execution cost `eec` and trust cost `tc` under
  /// `model`.  `tc` must be in [0, 6].  Inline: SchedulingProblem prices
  /// every (request, machine) pair through it.
  double esc(CostModel model, double eec, int tc) const {
    GT_REQUIRE(eec >= 0.0, "EEC must be non-negative");
    GT_REQUIRE(tc >= 0 && tc <= trust::kMaxTrustCost,
               "trust cost must be in [0, 6]");
    switch (model) {
      case CostModel::kNone:
        return 0.0;
      case CostModel::kBlanket:
        return eec * config_.blanket_pct / 100.0;
      case CostModel::kTrustCost:
        return eec * (static_cast<double>(tc) * config_.tc_weight_pct) / 100.0;
    }
    GT_ASSERT(false);
    return 0.0;
  }

  /// ECC = EEC + ESC.
  double ecc(CostModel model, double eec, int tc) const {
    return eec + esc(model, eec, tc);
  }

 private:
  SecurityCostConfig config_;
};

/// A scheduling policy: the decision-time model vs the incurred model.
struct SchedulingPolicy {
  CostModel decision = CostModel::kTrustCost;
  CostModel actual = CostModel::kTrustCost;
  std::string name;  ///< label used in experiment tables
};

/// The paper's trust-aware policy (decide on and pay TC-priced security).
SchedulingPolicy trust_aware_policy();

/// The paper's trust-unaware policy (decide on EEC alone, pay the blanket
/// rate).
SchedulingPolicy trust_unaware_policy();

/// Ablation: unaware placement that still pays only the TC-priced cost;
/// isolates the placement benefit from the cheaper-security benefit.
SchedulingPolicy unaware_placement_tc_priced_policy();

/// Ablation: trust-aware placement forced to pay the blanket rate; isolates
/// the cheaper-security benefit (placement cannot help when every machine
/// costs the same, so this should match the unaware policy).
SchedulingPolicy aware_placement_blanket_priced_policy();

}  // namespace gridtrust::sched
