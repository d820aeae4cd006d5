// Fuzzy reputation aggregation (FRTRUST-style) behind ReputationPolicy.
//
// Following Jameel et al.'s fuzzy trust models and FRTRUST (see PAPERS.md),
// trust is computed by fuzzy inference instead of a weighted average:
//
//   1. Two crisp inputs per query: the evaluator's direct experience with
//      the target (EWMA of first-hand scores) and the indirect evidence
//      (mean of third parties' records about the target, the evaluator's
//      own records excluded).
//   2. Each input is fuzzified over three triangular membership sets —
//      low / medium / high — spanning the [1, 6] trust scale.
//   3. A 3x3 Mamdani rule base (min conjunction) maps the membership
//      pairs to output sets; direct experience dominates on conflict,
//      mirroring the paper's α > β narrative.
//   4. The output is defuzzified by the weighted mean of the output sets'
//      centroids (center-of-sets), landing back on [1, 6].
//
// When only one input exists, single-input rules fire (identity mapping);
// a complete stranger gets the configured default.  The inference is pure
// arithmetic over stored records — deterministic by construction.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ranges>

#include "trust/reputation_policy.hpp"

namespace gridtrust::trust {

/// Tuning of the fuzzy backend.
struct FuzzyTrustConfig {
  /// EWMA learning rate blending a new observation into the stored direct
  /// record (0 < rate <= 1).
  double learning_rate = 0.3;
  /// Score returned for a complete stranger.  Matches the gamma backend's
  /// conservative default (level A): trust is earned, not presumed — the
  /// table-level initial_level is where campaigns grant the benefit of the
  /// doubt.
  double default_score = 1.0;
};

/// Registry name: "fuzzy".
class FuzzyReputationPolicy final : public ReputationPolicy {
 public:
  FuzzyTrustConfig static validated(FuzzyTrustConfig config);

  FuzzyReputationPolicy(FuzzyTrustConfig config, std::size_t entities,
                        std::size_t contexts);

  const std::string& name() const override;
  std::size_t entity_count() const override { return entities_; }
  std::size_t context_count() const override { return contexts_; }

  void record_transaction(const Transaction& tx) override;
  double evaluate(EntityId truster, EntityId trustee, ContextId context,
                  double now) const override;
  double stranger_default() const override { return config_.default_score; }
  std::optional<double> direct_component(EntityId truster, EntityId trustee,
                                         ContextId context,
                                         double now) const override;
  std::optional<double> reputation_component(EntityId evaluator,
                                             EntityId target,
                                             ContextId context,
                                             double now) const override;
  std::uint64_t observation_count(EntityId truster, EntityId trustee,
                                  ContextId context) const override;
  /// Looks each entity's record about the trustee up once per column.
  void offered_levels(std::span<const EntityId> trusters, EntityId trustee,
                      ContextId context, double now,
                      std::span<TrustLevel> out) const override;
  std::size_t forget(EntityId entity) override;
  std::uint64_t transaction_count() const override { return tx_count_; }
  std::vector<std::pair<std::string, std::uint64_t>> counters()
      const override;

  /// Membership degrees (low, medium, high) of a crisp score in [1, 6];
  /// exposed for tests (the three degrees of any in-range score sum to 1).
  static std::array<double, 3> fuzzify(double score);

 private:
  /// Keyed trustee-first, so the records about one (trustee, context)
  /// form one contiguous run of records_, in ascending truster order.
  struct StreamKey {
    EntityId trustee;
    ContextId context;
    EntityId truster;
    auto operator<=>(const StreamKey&) const = default;
  };
  struct Record {
    double level = 0.0;
    double last_time = 0.0;
    std::uint64_t count = 0;
  };
  using RecordMap = std::map<StreamKey, Record>;
  using Column = std::ranges::subrange<RecordMap::const_iterator>;
  /// The two crisp inputs of one evaluator.
  struct Inputs {
    std::optional<double> direct;
    std::optional<double> indirect;
  };

  void check(EntityId entity, ContextId context) const;
  /// The records about (trustee, context), each checked against `now`
  /// except `unchecked`'s: Ω alone never reads the evaluator's own record.
  Column column(EntityId trustee, ContextId context, double now,
                std::optional<EntityId> unchecked = std::nullopt) const;
  /// `evaluator`'s inputs from its column: its own record's level, and
  /// the mean of the others' levels summed in ascending truster order.
  static Inputs inputs(Column column, EntityId evaluator);
  /// Mamdani inference over the available inputs; counts rule firings.
  double infer(std::optional<double> direct,
               std::optional<double> indirect) const;
  /// evaluate() for every truster in `trusters` about one column.
  void scores(std::span<const EntityId> trusters, EntityId trustee,
              ContextId context, double now, std::span<double> out) const;

  FuzzyTrustConfig config_;
  std::size_t entities_;
  std::size_t contexts_;
  RecordMap records_;
  std::uint64_t tx_count_ = 0;
  mutable std::uint64_t evaluations_ = 0;
  mutable std::uint64_t rule_firings_ = 0;
};

}  // namespace gridtrust::trust
