// Alliance tracking for collusion-resistant reputation (§2.2).
//
// Entities may form alliances and tend to over-recommend their allies.  The
// recommender trust factor R(z, y) is discounted when the recommender z and
// the target y belong to the same alliance.  Alliances are transitive, so
// they form disjoint groups tracked with a union-find structure.
#pragma once

#include <cstddef>
#include <vector>

#include "trust/transaction.hpp"

namespace gridtrust::trust {

/// Disjoint-set of entity alliances.
class AllianceGraph {
 public:
  /// Creates `entities` singleton groups (no alliances).
  explicit AllianceGraph(std::size_t entities);

  std::size_t entity_count() const { return parent_.size(); }

  /// Merges the alliances of `a` and `b` (idempotent).
  void ally(EntityId a, EntityId b);

  /// True when `a` and `b` are in the same alliance (every entity is
  /// trivially allied with itself).
  bool allied(EntityId a, EntityId b) const;

 private:
  std::size_t find(std::size_t i) const;

  // Path-halving find keeps this const-friendly via mutable parents.
  mutable std::vector<std::size_t> parent_;
  std::vector<std::size_t> rank_;
};

}  // namespace gridtrust::trust
