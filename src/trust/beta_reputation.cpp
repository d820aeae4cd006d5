#include "trust/beta_reputation.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gridtrust::trust {

BetaReputationEngine::BetaReputationEngine(BetaReputationConfig config,
                                           std::size_t entities,
                                           std::size_t contexts)
    : config_(config), entities_(entities), contexts_(contexts) {
  GT_REQUIRE(entities > 0, "need at least one entity");
  GT_REQUIRE(contexts > 0, "need at least one context");
}

void BetaReputationEngine::age(Evidence& e, double now) const {
  GT_REQUIRE(now >= e.last_time, "time went backwards");
  if (config_.evidence_half_life > 0.0) {
    const double factor =
        std::exp2(-(now - e.last_time) / config_.evidence_half_life);
    e.positive *= factor;
    e.negative *= factor;
  }
  e.last_time = now;
}

void BetaReputationEngine::record_transaction(const Transaction& tx) {
  GT_REQUIRE(tx.truster < entities_ && tx.trustee < entities_,
             "entity id out of range");
  GT_REQUIRE(tx.context < contexts_, "context id out of range");
  GT_REQUIRE(tx.truster != tx.trustee,
             "an entity cannot rate itself");
  GT_REQUIRE(tx.observed_score >= 1.0 && tx.observed_score <= 6.0,
             "observed score must be on the [1, 6] scale");
  Evidence& e = pool_[Key{tx.trustee, tx.context}];
  age(e, tx.time);
  const double p = (tx.observed_score - 1.0) / 5.0;
  e.positive += p;
  e.negative += 1.0 - p;
  ++tx_count_;
}

std::optional<std::pair<double, double>> BetaReputationEngine::evidence(
    EntityId target, ContextId context, double now) const {
  GT_REQUIRE(target < entities_, "entity id out of range");
  GT_REQUIRE(context < contexts_, "context id out of range");
  const auto it = pool_.find(Key{target, context});
  if (it == pool_.end()) return std::nullopt;
  Evidence aged = it->second;
  age(aged, now);
  return std::pair<double, double>{aged.positive, aged.negative};
}

double BetaReputationEngine::reputation_score(EntityId target,
                                              ContextId context,
                                              double now) const {
  const auto ev = evidence(target, context, now);
  if (!ev) return 3.5;  // neutral prior: Beta(1,1) expectation on 1..6
  const double expectation =
      (ev->first + 1.0) / (ev->first + ev->second + 2.0);
  return 1.0 + 5.0 * expectation;
}

std::size_t BetaReputationEngine::forget(EntityId entity) {
  GT_REQUIRE(entity < entities_, "entity id out of range");
  std::size_t removed = 0;
  for (auto it = pool_.begin(); it != pool_.end();) {
    if (it->first.target == entity) {
      it = pool_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

TrustLevel BetaReputationEngine::offered_level(EntityId target,
                                               ContextId context,
                                               double now) const {
  return quantize_offered_level(reputation_score(target, context, now));
}

}  // namespace gridtrust::trust
