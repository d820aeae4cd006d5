#include "trust/beta_policy.hpp"

#include "common/error.hpp"

namespace gridtrust::trust {

BetaReputationPolicy::BetaReputationPolicy(BetaReputationConfig config,
                                           std::size_t entities,
                                           std::size_t contexts)
    : engine_(config, entities, contexts) {}

const std::string& BetaReputationPolicy::name() const {
  static const std::string kName = "beta";
  return kName;
}

void BetaReputationPolicy::check(EntityId entity, ContextId context) const {
  GT_REQUIRE(entity < engine_.entity_count(), "entity id out of range");
  GT_REQUIRE(context < engine_.context_count(), "context id out of range");
}

void BetaReputationPolicy::record_transaction(const Transaction& tx) {
  engine_.record_transaction(tx);
  ++stream_counts_[StreamKey{tx.truster, tx.trustee, tx.context}];
}

double BetaReputationPolicy::evaluate(EntityId truster, EntityId trustee,
                                      ContextId context, double now) const {
  // The pooled opinion is evaluator-independent, but the id must be valid.
  check(truster, context);
  ++evaluations_;
  return engine_.reputation_score(trustee, context, now);
}

std::optional<double> BetaReputationPolicy::direct_component(
    EntityId truster, EntityId trustee, ContextId context, double now) const {
  (void)now;
  check(truster, context);
  check(trustee, context);
  return std::nullopt;
}

std::optional<double> BetaReputationPolicy::reputation_component(
    EntityId evaluator, EntityId target, ContextId context, double now) const {
  check(evaluator, context);
  if (!engine_.evidence(target, context, now)) return std::nullopt;
  return engine_.reputation_score(target, context, now);
}

std::uint64_t BetaReputationPolicy::observation_count(
    EntityId truster, EntityId trustee, ContextId context) const {
  check(truster, context);
  check(trustee, context);
  const auto it =
      stream_counts_.find(StreamKey{truster, trustee, context});
  return it != stream_counts_.end() ? it->second : 0;
}

std::size_t BetaReputationPolicy::forget(EntityId entity) {
  std::size_t removed = engine_.forget(entity);
  for (auto it = stream_counts_.begin(); it != stream_counts_.end();) {
    if (std::get<0>(it->first) == entity || std::get<1>(it->first) == entity) {
      it = stream_counts_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::pair<std::string, std::uint64_t>>
BetaReputationPolicy::counters() const {
  return {{"evaluations", evaluations_}};
}

}  // namespace gridtrust::trust
