#include "chaos/config.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gridtrust::chaos {

void CampaignConfig::validate() const {
  GT_REQUIRE(std::isfinite(crash_penalty) && crash_penalty > 0.0,
             "crash penalty must be finite and positive");
  for (const AdversarySpec& spec : adversaries) validate_spec(spec);
  for (const FaultSpec& spec : faults) validate_spec(spec);
}

void ChaosCounters::to_report(obs::RunReport& report) const {
  report.set_count("chaos.faults_injected", faults_injected);
  report.set_count("chaos.outcomes_flipped", outcomes_flipped);
  report.set_count("chaos.recommendations_forged", recommendations_forged);
  report.set_count("chaos.recommendations_dropped", recommendations_dropped);
  report.set_count("chaos.recommendations_delayed", recommendations_delayed);
  report.set_count("chaos.whitewash_resets", whitewash_resets);
}

}  // namespace gridtrust::chaos
