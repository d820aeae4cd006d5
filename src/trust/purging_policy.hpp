// Recommendation purging (Suresh-Kumar-style) as a composable decorator.
//
// Following the purging line of work in PAPERS.md (drop recommendations
// from untrustworthy recommenders before they pollute the evidence pool),
// this decorator wraps any base ReputationPolicy and filters the
// recommendation path with a deviation test:
//
//   * First-hand transactions always pass — an evaluator's own experience
//     is its ground truth.
//   * Each accepted report updates a running consensus estimate per
//     (target, context).
//   * Once the consensus rests on enough reports, an incoming
//     recommendation deviating from it by more than the threshold is
//     purged: it never reaches the base policy.
//
// The filter is attack-agnostic: ballot-stuffed 6.0s and badmouthed 1.0s
// both sit far from an honestly formed consensus.  The cost is a blunted
// response to genuine behaviour changes (the consensus lags), which the
// backend tournament quantifies.  Composes with any base: "purge:gamma",
// "purge:beta", "purge:fuzzy".
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "trust/reputation_policy.hpp"

namespace gridtrust::trust {

/// Tuning of the purging filter.
struct PurgeConfig {
  /// A recommendation deviating from the consensus by more than this (on
  /// the [1, 6] scale) is purged.  Must be > 0.
  double deviation_threshold = 1.5;
  /// Reports the consensus must rest on before the filter activates; until
  /// then everything passes (a cold filter has no basis to judge).
  std::uint64_t min_consensus = 3;
  /// EWMA rate blending an accepted report into the consensus (0 < r <= 1).
  double consensus_rate = 0.3;
};

/// Registry name: "purge:<base name>".
class PurgingReputationPolicy final : public ReputationPolicy {
 public:
  PurgingReputationPolicy(std::unique_ptr<ReputationPolicy> base,
                          PurgeConfig config);

  const std::string& name() const override { return name_; }
  std::size_t entity_count() const override { return base_->entity_count(); }
  std::size_t context_count() const override {
    return base_->context_count();
  }

  void record_transaction(const Transaction& tx) override;
  void record_recommendation(const Recommendation& rec) override;
  double evaluate(EntityId truster, EntityId trustee, ContextId context,
                  double now) const override {
    return base_->evaluate(truster, trustee, context, now);
  }
  double stranger_default() const override {
    return base_->stranger_default();
  }
  std::optional<double> direct_component(EntityId truster, EntityId trustee,
                                         ContextId context,
                                         double now) const override {
    return base_->direct_component(truster, trustee, context, now);
  }
  std::optional<double> reputation_component(EntityId evaluator,
                                             EntityId target,
                                             ContextId context,
                                             double now) const override {
    return base_->reputation_component(evaluator, target, context, now);
  }
  std::uint64_t observation_count(EntityId truster, EntityId trustee,
                                  ContextId context) const override {
    return base_->observation_count(truster, trustee, context);
  }
  void offered_levels(std::span<const EntityId> trusters, EntityId trustee,
                      ContextId context, double now,
                      std::span<TrustLevel> out) const override {
    base_->offered_levels(trusters, trustee, context, now, out);
  }
  std::size_t forget(EntityId entity) override;
  std::uint64_t transaction_count() const override {
    return base_->transaction_count();
  }
  AllianceGraph* alliance_graph() override {
    return base_->alliance_graph();
  }
  std::vector<std::pair<std::string, std::uint64_t>> counters()
      const override;

  ReputationPolicy& base() { return *base_; }
  const ReputationPolicy& base() const { return *base_; }

 private:
  struct ConsensusKey {
    EntityId target;
    ContextId context;
    auto operator<=>(const ConsensusKey&) const = default;
  };
  struct Consensus {
    double value = 0.0;
    std::uint64_t count = 0;
  };

  void absorb(EntityId target, ContextId context, double score);

  std::unique_ptr<ReputationPolicy> base_;
  PurgeConfig config_;
  std::string name_;
  std::map<ConsensusKey, Consensus> consensus_;
  std::uint64_t purged_ = 0;
  std::uint64_t accepted_ = 0;
};

}  // namespace gridtrust::trust
