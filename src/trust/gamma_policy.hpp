// The paper's Γ = αΘ + βΩ model behind the ReputationPolicy interface.
//
// A thin adapter over trust::TrustEngine: every verb forwards 1:1, so the
// "gamma" backend is bit-identical to driving the engine directly — the
// contract the Table 4 manifest regression in tests/test_reputation.cpp
// pins.  The engine stays exposed (engine()) for Γ-specific capabilities
// the interface deliberately does not generalize: recommender-factor
// inspection, record import/export, pruning.
#pragma once

#include "trust/reputation_policy.hpp"
#include "trust/trust_engine.hpp"

namespace gridtrust::trust {

/// Registry name: "gamma".
class GammaReputationPolicy final : public ReputationPolicy {
 public:
  GammaReputationPolicy(TrustEngineConfig config, std::size_t entities,
                        std::size_t contexts);

  const std::string& name() const override;
  std::size_t entity_count() const override { return engine_.entity_count(); }
  std::size_t context_count() const override {
    return engine_.context_count();
  }

  void record_transaction(const Transaction& tx) override;
  double evaluate(EntityId truster, EntityId trustee, ContextId context,
                  double now) const override;
  double stranger_default() const override {
    return engine_.config().default_score;
  }
  std::optional<double> direct_component(EntityId truster, EntityId trustee,
                                         ContextId context,
                                         double now) const override;
  std::optional<double> reputation_component(EntityId evaluator,
                                             EntityId target,
                                             ContextId context,
                                             double now) const override;
  std::uint64_t observation_count(EntityId truster, EntityId trustee,
                                  ContextId context) const override;
  /// One pass of the engine's column Γ.
  void offered_levels(std::span<const EntityId> trusters, EntityId trustee,
                      ContextId context, double now,
                      std::span<TrustLevel> out) const override;
  std::size_t forget(EntityId entity) override;
  std::uint64_t transaction_count() const override {
    return engine_.transaction_count();
  }
  AllianceGraph* alliance_graph() override { return &engine_.alliances(); }
  std::vector<std::pair<std::string, std::uint64_t>> counters()
      const override;

  /// The wrapped §2.2 engine (Γ-specific extras).
  TrustEngine& engine() { return engine_; }
  const TrustEngine& engine() const { return engine_; }

 private:
  TrustEngine engine_;
  mutable std::uint64_t gamma_evals_ = 0;
};

}  // namespace gridtrust::trust
