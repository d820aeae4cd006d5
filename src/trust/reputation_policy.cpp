#include "trust/reputation_policy.hpp"

#include "common/error.hpp"

namespace gridtrust::trust {

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

}  // namespace gridtrust::trust
