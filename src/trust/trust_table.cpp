#include "trust/trust_table.hpp"

#include <limits>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::trust {

namespace {

const obs::Counter kTableLookups("trust.table_lookups");
const obs::Counter kTableWrites("trust.table_writes");

/// The entry count of a table, checked before the storage is sized: every
/// dimension positive and a product that does not wrap (a wrapped product
/// would leave a table that reports its dims over too little storage).
std::size_t entry_count(std::size_t client_domains,
                        std::size_t resource_domains, std::size_t activities) {
  GT_REQUIRE(client_domains > 0, "need at least one client domain");
  GT_REQUIRE(resource_domains > 0, "need at least one resource domain");
  GT_REQUIRE(activities > 0, "need at least one activity type");
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  GT_REQUIRE(resource_domains <= kMax / client_domains &&
                 activities <= kMax / (client_domains * resource_domains),
             "trust table dimensions overflow");
  return client_domains * resource_domains * activities;
}

}  // namespace

TrustLevelTable::TrustLevelTable(std::size_t client_domains,
                                 std::size_t resource_domains,
                                 std::size_t activities)
    : n_cd_(client_domains),
      n_rd_(resource_domains),
      n_act_(activities),
      levels_(entry_count(client_domains, resource_domains, activities),
              kMinTrustLevel) {}

std::size_t TrustLevelTable::offset(std::size_t cd, std::size_t rd,
                                    std::size_t activity) const {
  GT_REQUIRE(cd < n_cd_, "client domain index out of range");
  GT_REQUIRE(rd < n_rd_, "resource domain index out of range");
  GT_REQUIRE(activity < n_act_, "activity index out of range");
  return (cd * n_rd_ + rd) * n_act_ + activity;
}

TrustLevel TrustLevelTable::get(std::size_t cd, std::size_t rd,
                                std::size_t activity) const {
  kTableLookups.add();
  return levels_[offset(cd, rd, activity)];
}

void TrustLevelTable::set(std::size_t cd, std::size_t rd, std::size_t activity,
                          TrustLevel level) {
  GT_REQUIRE(to_numeric(level) <= to_numeric(kMaxOfferedLevel),
             "offered trust levels are capped at E");
  TrustLevel& slot = levels_[offset(cd, rd, activity)];
  if (slot != level) {
    slot = level;
    ++version_;
    kTableWrites.add();
  }
}

TrustLevel TrustLevelTable::offered_trust_level(
    std::size_t cd, std::size_t rd,
    std::span<const std::size_t> activities) const {
  TrustLevel otl = kMaxOfferedLevel;
  offered_trust_levels(cd, std::span<const std::size_t>(&rd, 1), activities,
                       std::span<TrustLevel>(&otl, 1));
  return otl;
}

void TrustLevelTable::offered_trust_levels(
    std::size_t cd, std::span<const std::size_t> rds,
    std::span<const std::size_t> activities,
    std::span<TrustLevel> levels) const {
  GT_REQUIRE(!activities.empty(),
             "a composite activity needs at least one ToA");
  GT_REQUIRE(cd < n_cd_, "client domain index out of range");
  for (const std::size_t act : activities) {
    GT_REQUIRE(act < n_act_, "activity index out of range");
  }
  GT_REQUIRE(levels.size() >= rds.size(), "one level slot per resource domain");
  for (std::size_t i = 0; i < rds.size(); ++i) {
    GT_REQUIRE(rds[i] < n_rd_, "resource domain index out of range");
    const TrustLevel* entry = levels_.data() + (cd * n_rd_ + rds[i]) * n_act_;
    TrustLevel otl = kMaxOfferedLevel;
    for (const std::size_t act : activities) {
      otl = min_level(otl, entry[act]);
    }
    levels[i] = otl;
  }
  kTableLookups.add(static_cast<double>(rds.size() * activities.size()));
}

double TrustLevelTable::resource_domain_mean(std::size_t rd) const {
  GT_REQUIRE(rd < n_rd_, "resource domain index out of range");
  double sum = 0.0;
  for (std::size_t cd = 0; cd < n_cd_; ++cd) {
    const std::size_t row = (cd * n_rd_ + rd) * n_act_;
    for (std::size_t act = 0; act < n_act_; ++act) {
      sum += static_cast<double>(to_numeric(levels_[row + act]));
    }
  }
  kTableLookups.add(static_cast<double>(n_cd_ * n_act_));
  return sum / static_cast<double>(n_cd_ * n_act_);
}

void TrustLevelTable::randomize(Rng& rng) {
  for (TrustLevel& level : levels_) {
    level = level_from_numeric(static_cast<int>(
        rng.uniform_int(to_numeric(kMinTrustLevel),
                        to_numeric(kMaxOfferedLevel))));
  }
  ++version_;
}

}  // namespace gridtrust::trust
