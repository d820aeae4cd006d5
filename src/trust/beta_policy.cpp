#include "trust/beta_policy.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gridtrust::trust {

BetaReputationPolicy::BetaReputationPolicy(BetaReputationConfig config,
                                           std::size_t entities,
                                           std::size_t contexts)
    : config_(config), entities_(entities), contexts_(contexts) {
  GT_REQUIRE(entities > 0, "need at least one entity");
  GT_REQUIRE(contexts > 0, "need at least one context");
}

const std::string& BetaReputationPolicy::name() const {
  static const std::string kName = "beta";
  return kName;
}

void BetaReputationPolicy::check(EntityId entity, ContextId context) const {
  GT_REQUIRE(entity < entities_, "entity id out of range");
  GT_REQUIRE(context < contexts_, "context id out of range");
}

void BetaReputationPolicy::age(Evidence& e, double now) const {
  GT_REQUIRE(now >= e.last_time, "time went backwards");
  if (config_.evidence_half_life > 0.0) {
    const double factor =
        std::exp2(-(now - e.last_time) / config_.evidence_half_life);
    e.positive *= factor;
    e.negative *= factor;
  }
  e.last_time = now;
}

std::optional<BetaReputationPolicy::Evidence> BetaReputationPolicy::evidence(
    EntityId target, ContextId context, double now) const {
  check(target, context);
  const auto it = pool_.find(Key{target, context});
  if (it == pool_.end()) return std::nullopt;
  Evidence aged = it->second;
  age(aged, now);
  return aged;
}

double BetaReputationPolicy::score(const Evidence& e) {
  const double expectation =
      (e.positive + 1.0) / (e.positive + e.negative + 2.0);
  return 1.0 + 5.0 * expectation;
}

void BetaReputationPolicy::record_transaction(const Transaction& tx) {
  GT_REQUIRE(tx.truster < entities_ && tx.trustee < entities_,
             "entity id out of range");
  GT_REQUIRE(tx.context < contexts_, "context id out of range");
  GT_REQUIRE(tx.truster != tx.trustee, "an entity cannot rate itself");
  GT_REQUIRE(tx.observed_score >= 1.0 && tx.observed_score <= 6.0,
             "observed score must be on the [1, 6] scale");
  Evidence& e = pool_[Key{tx.trustee, tx.context}];
  age(e, tx.time);
  const double p = (tx.observed_score - 1.0) / 5.0;
  e.positive += p;
  e.negative += 1.0 - p;
  ++tx_count_;
  ++stream_counts_[StreamKey{tx.truster, tx.trustee, tx.context}];
}

double BetaReputationPolicy::evaluate(EntityId truster, EntityId trustee,
                                      ContextId context, double now) const {
  // The pooled opinion is evaluator-independent, but the id must be valid.
  check(truster, context);
  ++evaluations_;
  const auto e = evidence(trustee, context, now);
  return e ? score(*e) : stranger_default();
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
  const auto e = evidence(target, context, now);
  if (!e) return std::nullopt;
  return score(*e);
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
