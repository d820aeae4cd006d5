// Beta reputation system — a comparison baseline for the paper's Γ model,
// behind the ReputationPolicy interface.
//
// The era's main alternative to weighted direct-trust/reputation blends was
// the Beta reputation system (Jøsang & Ismail, 2002): every transaction
// contributes positive/negative evidence (r, s) about the target, pooled
// over all observers, with exponential forgetting; the reputation is the
// expectation of the Beta(r+1, s+1) posterior.  One global opinion per
// (target, context) is shared by every evaluator.  The policy adds the
// per-stream bookkeeping the interface needs (directed observation counts
// for the agent bridge's min-transactions gate) that the pool itself does
// not track.
//
// Known weaknesses the backend tournament exposes: no recommender
// weighting (ballot-stuffing floods the pool), no per-evaluator view
// (badmouthing poisons everyone's opinion at once).
#pragma once

#include <map>
#include <tuple>

#include "trust/reputation_policy.hpp"

namespace gridtrust::trust {

/// Configuration of the Beta backend.
struct BetaReputationConfig {
  /// Exponential forgetting: evidence decays by 2^(-age/half_life); <= 0
  /// disables forgetting.
  double evidence_half_life = 0.0;
};

/// Registry name: "beta".
class BetaReputationPolicy final : public ReputationPolicy {
 public:
  BetaReputationPolicy(BetaReputationConfig config, std::size_t entities,
                       std::size_t contexts);

  const std::string& name() const override;
  std::size_t entity_count() const override { return entities_; }
  std::size_t context_count() const override { return contexts_; }

  /// Folds a transaction into the pool about tx.trustee: the observed score
  /// maps linearly onto evidence, score 6 -> fully positive, score 1 ->
  /// fully negative.
  void record_transaction(const Transaction& tx) override;
  /// The pooled Beta expectation about `trustee` mapped onto [1, 6]; the
  /// evaluator only has to be a valid id.
  double evaluate(EntityId truster, EntityId trustee, ContextId context,
                  double now) const override;
  /// Beta(1,1) expectation mapped onto [1, 6]: the scale midpoint.
  double stranger_default() const override { return 3.5; }
  /// The pooled model holds no per-evaluator direct component.
  std::optional<double> direct_component(EntityId truster, EntityId trustee,
                                         ContextId context,
                                         double now) const override;
  /// The pooled opinion, or empty when nothing about `target` was observed.
  std::optional<double> reputation_component(EntityId evaluator,
                                             EntityId target,
                                             ContextId context,
                                             double now) const override;
  std::uint64_t observation_count(EntityId truster, EntityId trustee,
                                  ContextId context) const override;
  /// Drops every evidence pool about `entity` and every directed count it
  /// takes part in.  The pool is keyed by target only, so evidence
  /// *contributed* by the entity about others is indistinguishable and
  /// stays — the price of pooling, and one of the contrasts the backend
  /// tournament draws out.
  std::size_t forget(EntityId entity) override;
  std::uint64_t transaction_count() const override { return tx_count_; }
  std::vector<std::pair<std::string, std::uint64_t>> counters()
      const override;

 private:
  struct Key {
    EntityId target;
    ContextId context;
    auto operator<=>(const Key&) const = default;
  };
  struct Evidence {
    double positive = 0.0;
    double negative = 0.0;
    double last_time = 0.0;
  };
  using StreamKey = std::tuple<EntityId, EntityId, ContextId>;

  /// Throws PreconditionError unless `entity` and `context` are in range.
  void check(EntityId entity, ContextId context) const;
  /// Decays `e` to `now` under the configured half-life.
  void age(Evidence& e, double now) const;
  /// The pool about (target, context) aged to `now`; empty when nothing
  /// has been observed.
  std::optional<Evidence> evidence(EntityId target, ContextId context,
                                   double now) const;
  /// Beta expectation of `e` mapped onto [1, 6].
  static double score(const Evidence& e);

  BetaReputationConfig config_;
  std::size_t entities_;
  std::size_t contexts_;
  std::map<Key, Evidence> pool_;
  /// Directed (truster, trustee, context) observation counts — the pool
  /// only keys evidence by target, but the bridge gates table updates on
  /// per-stream counts.
  std::map<StreamKey, std::uint64_t> stream_counts_;
  std::uint64_t tx_count_ = 0;
  mutable std::uint64_t evaluations_ = 0;
};

}  // namespace gridtrust::trust
