#include "sched/security_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gridtrust::sched {

SecurityCostModel::SecurityCostModel(SecurityCostConfig config)
    : config_(config) {
  GT_REQUIRE(std::isfinite(config.tc_weight_pct) && config.tc_weight_pct >= 0.0,
             "TC weight must be finite and non-negative");
  GT_REQUIRE(std::isfinite(config.blanket_pct) && config.blanket_pct >= 0.0,
             "blanket rate must be finite and non-negative");
}

SchedulingPolicy trust_aware_policy() {
  return SchedulingPolicy{CostModel::kTrustCost, CostModel::kTrustCost,
                          "trust-aware"};
}

SchedulingPolicy trust_unaware_policy() {
  return SchedulingPolicy{CostModel::kNone, CostModel::kBlanket,
                          "trust-unaware"};
}

SchedulingPolicy unaware_placement_tc_priced_policy() {
  return SchedulingPolicy{CostModel::kNone, CostModel::kTrustCost,
                          "unaware-placement/tc-priced"};
}

SchedulingPolicy aware_placement_blanket_priced_policy() {
  return SchedulingPolicy{CostModel::kBlanket, CostModel::kBlanket,
                          "aware-placement/blanket-priced"};
}

}  // namespace gridtrust::sched
