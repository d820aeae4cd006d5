// The trust management engine of §2.2.
//
// Maintains, per (truster, trustee, context), a direct-trust record built
// from transaction outcomes, and computes
//
//   Γ(x, y, t, c) = α·Θ(x, y, t, c) + β·Ω(y, t, c)
//   Θ(x, y, t, c) = DTT(x, y, c) · Υ(t - t_xy, c)
//   Ω(y, t, c)    = avg over z != x of RTT(z, y, c) · R(z, y) · Υ(t - t_zy, c)
//
// with RTT and DTT referring to the same table (as the paper assumes for
// practical systems).  The recommender trust factor R guards against
// collusion: it is discounted when the recommender is allied with the target,
// and optionally refined online by comparing recommendations with the
// evaluator's own later observations.
//
// Storage: the records are indexed by (trustee, context).  Each of the
// entities × contexts columns holds the records about one trustee in one
// context, sorted by truster.  Θ is a binary search in one short column, and
// Ω visits only the recommenders that hold a record, in ascending id order —
// the summation order every committed manifest was produced with.
//
// Γ has one home, the column form of eventual_trust(): it evaluates many
// trusters about one (trustee, context) in one pass, computing each
// record's decayed level and alliance factor once.  The one-truster form
// is its k = 1 case.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "trust/alliance.hpp"
#include "trust/decay.hpp"
#include "trust/transaction.hpp"
#include "trust/trust_level.hpp"

namespace gridtrust::trust {

/// Tuning knobs for the engine.  Defaults follow the paper's narrative:
/// direct experience outweighs reputation (α > β).
struct TrustEngineConfig {
  /// Weight of direct trust in Γ.  α and β are normalized internally, so
  /// only their ratio matters.  Both must be >= 0 with α + β > 0.
  double alpha = 0.6;
  /// Weight of reputation in Γ.
  double beta = 0.4;
  /// EWMA learning rate blending a new observation into the stored
  /// direct-trust level (0 < rate <= 1; 1 = keep only the latest).
  double learning_rate = 0.3;
  /// R(z, y) when z and y are allied (must be in [0, 1]).  1 would disable
  /// collusion protection.
  double alliance_discount = 0.3;
  /// R(z, y) when z and y are not allied (must be in [0, 1]).
  double independent_weight = 1.0;
  /// When true, each evaluator also learns a per-recommender reliability
  /// weight from recommendation-vs-experience mismatches (an extension the
  /// paper lists as future work: "R ... is learned based on actual
  /// outcomes").
  bool learn_recommender_weights = false;
  /// Learning rate for the per-recommender weights.
  double recommender_learning_rate = 0.2;
  /// Γ for a complete stranger (no direct data, no reputation data).
  double default_score = static_cast<double>(to_numeric(TrustLevel::kA));
  /// Decay function Υ; defaults to no decay (trust is slow-varying, §3.1).
  std::shared_ptr<const DecayFunction> decay;
  /// Per-context decay overrides — the paper's Υ(t - t_xy, c) is context
  /// dependent (storage trust may age slower than execution trust).
  /// Contexts absent from the map use `decay`.
  std::map<ContextId, std::shared_ptr<const DecayFunction>> context_decay;
};

/// One direct-trust record: the DTT/RTT entry for (truster, trustee, context).
struct DirectTrustRecord {
  double level = 0.0;        ///< continuous trust level in [1, 6]
  double last_time = 0.0;    ///< time of the most recent transaction
  std::uint64_t count = 0;   ///< number of transactions folded in
};

/// The trust management engine.
class TrustEngine {
 public:
  /// Creates an engine over a fixed entity population and context set.
  TrustEngine(TrustEngineConfig config, std::size_t entities,
              std::size_t contexts);

  std::size_t entity_count() const { return entities_; }
  std::size_t context_count() const { return contexts_; }
  const TrustEngineConfig& config() const { return config_; }

  /// Mutable alliance structure (collusion modelling).
  AllianceGraph& alliances() { return alliances_; }
  const AllianceGraph& alliances() const { return alliances_; }

  /// Folds a completed transaction into the direct-trust table.  Times must
  /// be non-decreasing per (truster, trustee, context) pair.
  void record_transaction(const Transaction& tx);

  /// The raw DTT record, if any transactions exist for the triple.
  std::optional<DirectTrustRecord> direct_record(EntityId truster,
                                                 EntityId trustee,
                                                 ContextId context) const;

  /// Θ(x, y, t, c); empty when x has no direct experience with y in c.
  std::optional<double> direct_trust(EntityId truster, EntityId trustee,
                                     ContextId context, double now) const;

  /// Ω(y, t, c) from the perspective of `evaluator` (whose own records are
  /// excluded); empty when no third party has experience with y in c.
  std::optional<double> reputation(EntityId evaluator, EntityId target,
                                   ContextId context, double now) const;

  /// Γ(x, y, t, c).  When one component is unavailable the other takes full
  /// weight; a total stranger gets config().default_score.
  double eventual_trust(EntityId truster, EntityId trustee, ContextId context,
                        double now) const;

  /// Γ of every truster in `trusters` (any order) about one (trustee,
  /// context): out[k] is eventual_trust(trusters[k], trustee, context, now)
  /// bit for bit, and the obs counters get the same totals.  For each
  /// truster Θ is its own record, and Ω sums the other records in
  /// ascending truster order, each scaled by R as that truster sees it.
  /// `out` must be as long as `trusters`; an empty list does nothing.
  void eventual_trust(std::span<const EntityId> trusters, EntityId trustee,
                      ContextId context, double now,
                      std::span<double> out) const;

  /// The recommender trust factor R(z, y) as seen by `evaluator`:
  /// alliance-based base weight times the evaluator's learned reliability
  /// weight for z (1 until learning kicks in).
  double recommender_factor(EntityId evaluator, EntityId recommender,
                            EntityId target) const;

  /// Total transactions recorded.
  std::uint64_t transaction_count() const { return tx_count_; }

  /// Erases every record in which `entity` appears as truster or trustee and
  /// resets the learned recommender weights involving it — the engine-side
  /// effect of an identity reset (a domain leaving, or a whitewashing
  /// adversary re-registering under a fresh name).  Returns the number of
  /// records removed.  The transaction counter counts history, not
  /// storage, and is not rewound.
  std::size_t forget(EntityId entity);

 private:
  /// One truster's record inside a (trustee, context) column.
  struct Slot {
    EntityId truster = 0;
    DirectTrustRecord record;
  };
  /// Every record about one (trustee, context), sorted by truster.
  using Column = std::vector<Slot>;
  /// One record of a column, evaluated at a query time.
  struct Term {
    EntityId truster = 0;
    double decayed = 0.0;  ///< DTT · Υ: Θ for its own truster
    double alliance = 0.0;  ///< R(truster, trustee) before learned weights
  };

  void check_entity(EntityId id) const;
  void check_context(ContextId id) const;
  const DecayFunction& decay_for(ContextId context) const;
  /// R(recommender, target) from the alliance structure alone.
  double alliance_factor(EntityId recommender, EntityId target) const;
  /// Evaluates every record of column (trustee, context) at `now` once,
  /// requiring now >= last_time of each.  The record of `skip`, if given,
  /// is left out unevaluated: Ω alone never reads the evaluator's own.
  std::vector<Term> column_terms(
      EntityId trustee, ContextId context, double now,
      std::optional<EntityId> skip = std::nullopt) const;
  /// Ω for `evaluator` from its column's terms, its own term excluded;
  /// `summed` receives the number of terms summed.
  std::optional<double> omega(EntityId evaluator, std::span<const Term> terms,
                              std::size_t& summed) const;
  Column& column(EntityId trustee, ContextId context) {
    return columns_[trustee * contexts_ + context];
  }
  const Column& column(EntityId trustee, ContextId context) const {
    return columns_[trustee * contexts_ + context];
  }
  /// Updates evaluator-side recommender weights given a fresh first-hand
  /// observation that can be compared against outstanding recommendations.
  void learn_recommenders(const Transaction& tx);

  TrustEngineConfig config_;
  // Normalized Γ weights, hoisted out of the hot path at construction so
  // eventual_trust() blends with two cached doubles instead of re-reading
  // the config struct per evaluation.
  double norm_alpha_ = 0.0;
  double norm_beta_ = 0.0;
  std::size_t entities_;
  std::size_t contexts_;
  AllianceGraph alliances_;
  // columns_[trustee * contexts_ + context]; O(records + entities ×
  // contexts) memory in total.
  std::vector<Column> columns_;
  std::size_t record_count_ = 0;
  // learned_weight_[x * entities_ + z]: x's reliability weight for
  // recommender z.  One flat row-major array (not a vector-of-vectors) so
  // an evaluator's row is a single contiguous cache-friendly stripe — and
  // allocated only when learn_recommender_weights is on, since it is E^2
  // doubles (a million-entity engine must not pay 8 * 10^12 bytes for a
  // feature that is off by default).
  std::vector<double> learned_weight_;
  std::uint64_t tx_count_ = 0;
};

}  // namespace gridtrust::trust
