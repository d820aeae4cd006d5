// Trust agents bridging Grid transactions and the trust-level table (Fig. 1).
//
// The CDs and RDs have agents that monitor Grid-level transactions, form
// trust notions through a pluggable ReputationPolicy, and update the central
// trust-level table when the freshly computed level differs from the stored
// one.  The paper requires updates to rest on a *significant* amount of
// transactional data, hence the min_transactions threshold.
//
// Every domain-agent report is routed through the policy's recommendation
// verb: in the centrally organized table each observation is simultaneously
// first-hand evidence (for the reporting domain) and a recommendation (for
// everyone else reading the table).  Backends that filter the report stream
// (purge:*) therefore see the whole stream; the default gamma backend folds
// it back into first-hand transactions, bit-identical to the pre-interface
// engine.
//
// Entity mapping: client domain i -> policy entity i; resource domain j ->
// policy entity (client_domains + j).  Contexts are activity (ToA) indices.
#pragma once

#include <cstdint>
#include <memory>

#include "trust/reputation_policy.hpp"
#include "trust/trust_engine.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::trust {

/// The agent layer: one logical agent per domain, all sharing one policy
/// (the paper's single centrally organized table).
class DomainTrustBridge {
 public:
  /// Creates agents for `client_domains` CDs and `resource_domains` RDs
  /// interacting over `activities` ToAs, forming trust through `policy`
  /// (which must span client_domains + resource_domains entities and
  /// `activities` contexts).  Table updates require at least
  /// `min_transactions` observations on the pair/activity (in either
  /// direction combined).
  DomainTrustBridge(std::unique_ptr<ReputationPolicy> policy,
                    std::size_t client_domains, std::size_t resource_domains,
                    std::size_t activities, std::uint64_t min_transactions = 3);

  std::size_t client_domains() const { return n_cd_; }
  std::size_t resource_domains() const { return n_rd_; }

  /// Engine entity id of a client domain.
  EntityId cd_entity(std::size_t cd) const;
  /// Engine entity id of a resource domain.
  EntityId rd_entity(std::size_t rd) const;

  /// CD-side agent observation: a client of `cd` ran activity `activity`
  /// on a resource of `rd` and judged its conduct at `score` (1..6).
  void observe_client_side(std::size_t cd, std::size_t rd,
                           std::size_t activity, double time, double score);

  /// RD-side agent observation: a resource of `rd` hosted activity
  /// `activity` for a client of `cd` and judged its conduct at `score`.
  void observe_resource_side(std::size_t rd, std::size_t cd,
                             std::size_t activity, double time, double score);

  /// Recomputes the table entries from the policy's current state and writes
  /// back those that changed.  The stored TL_ij^k is the paper's symmetric
  /// quantifier of an asymmetric relationship; we quantify conservatively as
  /// the minimum of the two directed evaluations.  Entries with fewer than
  /// min_transactions observations are left untouched.  Returns the number
  /// of entries updated.  Asks the policy's column queries, one activity
  /// at a time; the result equals a per-entry walk, counters included.
  std::size_t refresh(TrustLevelTable& table, double now) const;

  /// The backend forming trust for this bridge.
  ReputationPolicy& policy() { return *policy_; }
  const ReputationPolicy& policy() const { return *policy_; }

  /// Γ-engine access for callers needing gamma-specific features (alliance
  /// wiring, recommender learning).  Requires the backend to be "gamma";
  /// use policy() for backend-agnostic access.
  TrustEngine& engine();

 private:
  std::size_t n_cd_;
  std::size_t n_rd_;
  std::size_t n_act_;
  std::uint64_t min_transactions_;
  std::unique_ptr<ReputationPolicy> policy_;
};

}  // namespace gridtrust::trust
