// The trust-level table between client domains and resource domains (§3.1).
//
// TL[i][j][k] is the (symmetric-quantifier) trust value for clients of client
// domain i engaging in activity k on resources of resource domain j.  The
// table is the single, centrally maintained structure of Fig. 1; trust agents
// write to it and the scheduler reads offered trust levels from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "trust/trust_level.hpp"

namespace gridtrust::trust {

/// Dense CD x RD x ToA table of offered trust levels.
class TrustLevelTable {
 public:
  /// Creates a table with every entry at the lowest level (A).  All three
  /// dimensions must be positive, and their product must fit a size_t.
  TrustLevelTable(std::size_t client_domains, std::size_t resource_domains,
                  std::size_t activities);

  std::size_t client_domains() const { return n_cd_; }
  std::size_t resource_domains() const { return n_rd_; }
  std::size_t activities() const { return n_act_; }

  /// Reads one entry; indices are range-checked.  Every read counts as one
  /// `trust.table_lookups`.
  TrustLevel get(std::size_t cd, std::size_t rd, std::size_t activity) const;

  /// Writes one entry.  Offered levels are capped at E by the model, so
  /// `level` must be in A..E.  Bumps the table version if the value changed.
  void set(std::size_t cd, std::size_t rd, std::size_t activity,
           TrustLevel level);

  /// Offered trust level for a composite activity: the minimum table entry
  /// over the requested activities (§3.1).  `activities` must be non-empty
  /// and in range.
  TrustLevel offered_trust_level(std::size_t cd, std::size_t rd,
                                 std::span<const std::size_t> activities) const;

  /// offered_trust_level of one composite activity on several resource
  /// domains: `levels[i]` receives the OTL of (cd, rds[i]).  `levels` must
  /// hold rds.size() entries.  The ToAs are checked once per call, and the
  /// rds.size() * activities.size() table lookups are added once.
  void offered_trust_levels(std::size_t cd, std::span<const std::size_t> rds,
                            std::span<const std::size_t> activities,
                            std::span<TrustLevel> levels) const;

  /// Mean numeric level of resource domain `rd` over every (client domain,
  /// activity) entry.  Like offered_trust_level, it counts one table lookup
  /// per entry read, added once per call.
  double resource_domain_mean(std::size_t rd) const;

  /// Fills every entry uniformly from [A..E] (the paper's OTL ~ U[1,5]).
  void randomize(Rng& rng);

  /// Monotone counter incremented on every effective set(); lets replicas
  /// and read caches detect staleness cheaply (trust is slow-varying, §3.1).
  std::uint64_t version() const { return version_; }

 private:
  std::size_t offset(std::size_t cd, std::size_t rd,
                     std::size_t activity) const;

  std::size_t n_cd_;
  std::size_t n_rd_;
  std::size_t n_act_;
  std::uint64_t version_ = 0;
  std::vector<TrustLevel> levels_;
};

}  // namespace gridtrust::trust
