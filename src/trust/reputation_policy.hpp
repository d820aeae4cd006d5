// The reputation-policy interface: the trust layer's pluggable core.
//
// The paper's Γ = αΘ + βΩ engine (trust_engine.hpp) is one way to turn
// transaction histories into trust estimates; the literature offers others
// (pooled-evidence Beta, fuzzy aggregation, recommendation purging).  A
// ReputationPolicy abstracts the four verbs every such model shares —
// record a first-hand transaction, record a relayed recommendation,
// evaluate trust, forget an identity — so the agent bridge, the chaos
// campaigns, and the lab sweeps select a backend by name
// (reputation_registry.hpp) instead of hard-coding one class.
//
// Contract (enforced by the conformance suite in tests/test_reputation.cpp):
//   * evaluate() returns a score on the [1, 6] trust scale, is
//     deterministic (no hidden randomness), and yields the backend's
//     documented stranger default when no evidence about the trustee
//     exists.
//   * Reputation aggregation never counts the evaluator's own records as
//     third-party evidence — Ω-style components exclude the evaluator.
//   * forget(e) erases every stored trace of entity e: a later evaluate()
//     involving e behaves as if e had just joined.
//   * Transaction and recommendation times are non-decreasing per
//     evidence stream, matching the concrete engines' requirements.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trust/alliance.hpp"
#include "trust/transaction.hpp"
#include "trust/trust_level.hpp"

namespace gridtrust::trust {

/// A relayed third-party statement: `recommender` claims that `target`'s
/// conduct in `context` at `time` merited `score` (1..6).  Under the
/// paper's RTT == DTT assumption a recommendation is simply the
/// recommender's own direct record made visible to others, which is what
/// the default record_recommendation() implements; purging backends
/// intercept this path to filter outliers before they enter the evidence
/// pool.
struct Recommendation {
  EntityId recommender = 0;
  EntityId target = 0;
  ContextId context = 0;
  double time = 0.0;
  double score = 0.0;
};

/// Backend selection as plain data: a backend name.  Rides inside
/// sim::Scenario so a sweep can treat the backend like any other
/// parameter.  The default selects the paper's Γ model.
struct ReputationBackendConfig {
  /// "gamma", "beta", "fuzzy", or a purge composite such as "purge:gamma"
  /// (see reputation_registry.hpp).
  std::string name = "gamma";
};

/// Abstract reputation backend.  Implementations are not thread-safe; each
/// simulation owns its policy instance (the lab engine gives every
/// replication its own).
class ReputationPolicy {
 public:
  virtual ~ReputationPolicy() = default;

  /// The backend name this instance was built under ("gamma", "beta",
  /// "fuzzy", "purge:<base>").  Keys the per-backend counters.
  virtual const std::string& name() const = 0;

  virtual std::size_t entity_count() const = 0;
  virtual std::size_t context_count() const = 0;

  /// Folds a first-hand observation by tx.truster about tx.trustee.
  virtual void record_transaction(const Transaction& tx) = 0;

  /// Folds a relayed recommendation.  The default implementation applies
  /// the paper's RTT == DTT reading: the statement becomes the
  /// recommender's own direct record (identical to record_transaction with
  /// the recommender as truster).  Backends that police the recommender
  /// path (purging) override this.
  virtual void record_recommendation(const Recommendation& rec);

  /// The backend's trust estimate for (truster -> trustee, context) at
  /// `now`, on the [1, 6] scale.  Must return stranger_default() when no
  /// evidence about the trustee exists.
  virtual double evaluate(EntityId truster, EntityId trustee,
                          ContextId context, double now) const = 0;

  /// evaluate() quantized to a discrete level and capped at E (an offered
  /// level can never be F).
  TrustLevel offered_level(EntityId truster, EntityId trustee,
                           ContextId context, double now) const;

  /// The score evaluate() returns for a complete stranger.
  virtual double stranger_default() const = 0;

  /// Direct (first-hand) component of the estimate, when the backend
  /// models one; empty for strangers or backends without the notion.
  virtual std::optional<double> direct_component(EntityId truster,
                                                 EntityId trustee,
                                                 ContextId context,
                                                 double now) const = 0;

  /// Third-party (reputation) component, excluding the evaluator's own
  /// records; empty when no third party holds evidence.
  virtual std::optional<double> reputation_component(EntityId evaluator,
                                                     EntityId target,
                                                     ContextId context,
                                                     double now) const = 0;

  /// Observations the backend holds for the directed (truster, trustee,
  /// context) stream — the agent bridge's min-transactions gate.
  virtual std::uint64_t observation_count(EntityId truster, EntityId trustee,
                                          ContextId context) const = 0;

  // Column queries: one (trustee, context) column, many trusters, in any
  // order.  Entry for entry each equals the per-entry call made for every
  // truster in order — backend counters and obs metrics included — and an
  // empty truster list does nothing.  `out` must be as long as `trusters`.
  // The agent bridge's refresh asks this way.

  /// out[k] = observation_count(trusters[k], trustee, context).  Not
  /// virtual: a count is one lookup, so the per-entry call is the one
  /// count path.
  void observation_counts(std::span<const EntityId> trusters,
                          EntityId trustee, ContextId context,
                          std::span<std::uint64_t> out) const;

  /// out[k] = offered_level(trusters[k], trustee, context, now).  The
  /// default loops over the per-entry call; a backend whose evaluation
  /// shares work across a column overrides it to walk the column once.
  virtual void offered_levels(std::span<const EntityId> trusters,
                              EntityId trustee, ContextId context, double now,
                              std::span<TrustLevel> out) const;

  /// Erases every record in which `entity` appears (identity reset: a
  /// domain leaving, or a whitewashing adversary re-registering).  Returns
  /// the number of records removed.
  virtual std::size_t forget(EntityId entity) = 0;

  /// Total transactions/recommendations folded in (history, not storage).
  virtual std::uint64_t transaction_count() const = 0;

  /// The collusion structure, for backends that model one (the Γ engine's
  /// recommender factor R); nullptr otherwise.  Callers must tolerate
  /// nullptr — wiring alliances into a backend without the notion is a
  /// silent no-op by design.
  virtual AllianceGraph* alliance_graph() { return nullptr; }
  const AllianceGraph* alliance_graph() const {
    return const_cast<ReputationPolicy*>(this)->alliance_graph();
  }

  /// Per-backend counters in deterministic order ("gamma_evals",
  /// "purged_recommendations", "fuzzy_rule_firings", ...).  Decorators
  /// append their base's counters after their own.
  virtual std::vector<std::pair<std::string, std::uint64_t>> counters()
      const = 0;
};

}  // namespace gridtrust::trust
