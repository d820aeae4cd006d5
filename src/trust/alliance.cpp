#include "trust/alliance.hpp"

#include <numeric>

#include "common/error.hpp"

namespace gridtrust::trust {

AllianceGraph::AllianceGraph(std::size_t entities)
    : parent_(entities), rank_(entities, 0) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t AllianceGraph::find(std::size_t i) const {
  GT_REQUIRE(i < parent_.size(), "entity id out of range");
  while (parent_[i] != i) {
    parent_[i] = parent_[parent_[i]];  // path halving
    i = parent_[i];
  }
  return i;
}

void AllianceGraph::ally(EntityId a, EntityId b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
}

bool AllianceGraph::allied(EntityId a, EntityId b) const {
  return find(a) == find(b);
}

}  // namespace gridtrust::trust
