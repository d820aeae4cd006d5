// Pooled-evidence Beta reputation (Jøsang & Ismail 2002) behind the
// ReputationPolicy interface.
//
// Wraps trust::BetaReputationEngine: one global Beta(r+1, s+1) opinion per
// (target, context), shared by every evaluator, with optional exponential
// forgetting.  The adapter adds the per-stream bookkeeping the interface
// needs (directed observation counts for the agent bridge's
// min-transactions gate) that the pooled engine itself does not track.
//
// Known weaknesses the backend tournament exposes: no recommender
// weighting (ballot-stuffing floods the pool), no per-evaluator view
// (badmouthing poisons everyone's opinion at once).
#pragma once

#include <map>
#include <tuple>

#include "trust/beta_reputation.hpp"
#include "trust/reputation_policy.hpp"

namespace gridtrust::trust {

/// Registry name: "beta".
class BetaReputationPolicy final : public ReputationPolicy {
 public:
  BetaReputationPolicy(BetaReputationConfig config, std::size_t entities,
                       std::size_t contexts);

  const std::string& name() const override;
  std::size_t entity_count() const override { return engine_.entity_count(); }
  std::size_t context_count() const override {
    return engine_.context_count();
  }

  void record_transaction(const Transaction& tx) override;
  double evaluate(EntityId truster, EntityId trustee, ContextId context,
                  double now) const override;
  /// Beta(1,1) expectation mapped onto [1, 6]: the scale midpoint.
  double stranger_default() const override { return 3.5; }
  /// The pooled model holds no per-evaluator direct component.
  std::optional<double> direct_component(EntityId truster, EntityId trustee,
                                         ContextId context,
                                         double now) const override;
  std::optional<double> reputation_component(EntityId evaluator,
                                             EntityId target,
                                             ContextId context,
                                             double now) const override;
  std::uint64_t observation_count(EntityId truster, EntityId trustee,
                                  ContextId context) const override;
  std::size_t forget(EntityId entity) override;
  std::uint64_t transaction_count() const override {
    return engine_.transaction_count();
  }
  std::vector<std::pair<std::string, std::uint64_t>> counters()
      const override;

  const BetaReputationEngine& engine() const { return engine_; }

 private:
  using StreamKey = std::tuple<EntityId, EntityId, ContextId>;

  /// Throws PreconditionError unless `entity` and `context` are in range.
  void check(EntityId entity, ContextId context) const;

  BetaReputationEngine engine_;
  /// Directed (truster, trustee, context) observation counts — the pooled
  /// engine only keys evidence by target, but the bridge gates table
  /// updates on per-stream counts.
  std::map<StreamKey, std::uint64_t> stream_counts_;
  mutable std::uint64_t evaluations_ = 0;
};

}  // namespace gridtrust::trust
