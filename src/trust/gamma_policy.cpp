#include "trust/gamma_policy.hpp"

#include <vector>

#include "common/error.hpp"

namespace gridtrust::trust {

GammaReputationPolicy::GammaReputationPolicy(TrustEngineConfig config,
                                             std::size_t entities,
                                             std::size_t contexts)
    : engine_(std::move(config), entities, contexts) {}

const std::string& GammaReputationPolicy::name() const {
  static const std::string kName = "gamma";
  return kName;
}

void GammaReputationPolicy::record_transaction(const Transaction& tx) {
  engine_.record_transaction(tx);
}

double GammaReputationPolicy::evaluate(EntityId truster, EntityId trustee,
                                       ContextId context, double now) const {
  ++gamma_evals_;
  return engine_.eventual_trust(truster, trustee, context, now);
}

std::optional<double> GammaReputationPolicy::direct_component(
    EntityId truster, EntityId trustee, ContextId context, double now) const {
  return engine_.direct_trust(truster, trustee, context, now);
}

std::optional<double> GammaReputationPolicy::reputation_component(
    EntityId evaluator, EntityId target, ContextId context, double now) const {
  return engine_.reputation(evaluator, target, context, now);
}

std::uint64_t GammaReputationPolicy::observation_count(
    EntityId truster, EntityId trustee, ContextId context) const {
  const auto record = engine_.direct_record(truster, trustee, context);
  return record ? record->count : 0;
}

void GammaReputationPolicy::offered_levels(std::span<const EntityId> trusters,
                                           EntityId trustee,
                                           ContextId context, double now,
                                           std::span<TrustLevel> out) const {
  GT_REQUIRE(out.size() == trusters.size(), "need one output per truster");
  gamma_evals_ += trusters.size();
  std::vector<double> gamma(trusters.size());
  engine_.eventual_trust(trusters, trustee, context, now, gamma);
  for (std::size_t k = 0; k < gamma.size(); ++k) {
    out[k] = quantize_offered_level(gamma[k]);
  }
}

std::size_t GammaReputationPolicy::forget(EntityId entity) {
  return engine_.forget(entity);
}

std::vector<std::pair<std::string, std::uint64_t>>
GammaReputationPolicy::counters() const {
  return {{"gamma_evals", gamma_evals_}};
}

}  // namespace gridtrust::trust
