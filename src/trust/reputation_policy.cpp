#include "trust/reputation_policy.hpp"

#include <cstddef>
#include <string>

#include "common/error.hpp"

namespace gridtrust::trust {

void ReputationBackendConfig::set_override(const std::string& assignment) {
  const std::size_t eq = assignment.find('=');
  GT_REQUIRE(eq != std::string::npos,
             "reputation override '" + assignment +
                 "': expected key=value (e.g. purge.deviation_threshold=2)");
  const std::string key = assignment.substr(0, eq);
  const std::string text = assignment.substr(eq + 1);
  GT_REQUIRE(!key.empty(),
             "reputation override '" + assignment + "': empty key");
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  GT_REQUIRE(!text.empty() && consumed == text.size(),
             "reputation override '" + assignment + "': value '" + text +
                 "' is not a number");
  params[key] = value;
}

void ReputationPolicy::record_recommendation(const Recommendation& rec) {
  // RTT == DTT (§2.2's practical-systems assumption): a recommendation is
  // the recommender's own direct record made visible to third parties.
  record_transaction(Transaction{rec.recommender, rec.target, rec.context,
                                 rec.time, rec.score});
}

TrustLevel ReputationPolicy::offered_level(EntityId truster, EntityId trustee,
                                           ContextId context,
                                           double now) const {
  return quantize_offered_level(evaluate(truster, trustee, context, now));
}

void ReputationPolicy::observation_counts(std::span<const EntityId> trusters,
                                          EntityId trustee, ContextId context,
                                          std::span<std::uint64_t> out) const {
  GT_REQUIRE(out.size() == trusters.size(), "need one output per truster");
  for (std::size_t k = 0; k < trusters.size(); ++k) {
    out[k] = observation_count(trusters[k], trustee, context);
  }
}

void ReputationPolicy::offered_levels(std::span<const EntityId> trusters,
                                      EntityId trustee, ContextId context,
                                      double now,
                                      std::span<TrustLevel> out) const {
  GT_REQUIRE(out.size() == trusters.size(), "need one output per truster");
  for (std::size_t k = 0; k < trusters.size(); ++k) {
    out[k] = offered_level(trusters[k], trustee, context, now);
  }
}

void ReputationPolicy::counters_to_report(obs::RunReport& report) const {
  const std::string prefix = "trust." + name() + ".";
  for (const auto& [counter, value] : counters()) {
    report.set_count(prefix + counter, value);
  }
}

}  // namespace gridtrust::trust
