#include "trust/agents.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "trust/gamma_policy.hpp"

namespace gridtrust::trust {

DomainTrustBridge::DomainTrustBridge(std::unique_ptr<ReputationPolicy> policy,
                                     std::size_t client_domains,
                                     std::size_t resource_domains,
                                     std::size_t activities,
                                     std::uint64_t min_transactions)
    : n_cd_(client_domains),
      n_rd_(resource_domains),
      n_act_(activities),
      min_transactions_(min_transactions),
      policy_(std::move(policy)) {
  GT_REQUIRE(policy_ != nullptr, "bridge needs a reputation policy");
  GT_REQUIRE(min_transactions >= 1,
             "table updates need at least one observation");
  GT_REQUIRE(policy_->entity_count() == client_domains + resource_domains,
             "policy entity count must cover every CD and RD");
  GT_REQUIRE(policy_->context_count() == activities,
             "policy context count must match the activity count");
}

EntityId DomainTrustBridge::cd_entity(std::size_t cd) const {
  GT_REQUIRE(cd < n_cd_, "client domain index out of range");
  return static_cast<EntityId>(cd);
}

EntityId DomainTrustBridge::rd_entity(std::size_t rd) const {
  GT_REQUIRE(rd < n_rd_, "resource domain index out of range");
  return static_cast<EntityId>(n_cd_ + rd);
}

void DomainTrustBridge::observe_client_side(std::size_t cd, std::size_t rd,
                                            std::size_t activity, double time,
                                            double score) {
  GT_REQUIRE(activity < n_act_, "activity index out of range");
  policy_->record_recommendation(Recommendation{
      cd_entity(cd), rd_entity(rd), static_cast<ContextId>(activity), time,
      score});
}

void DomainTrustBridge::observe_resource_side(std::size_t rd, std::size_t cd,
                                              std::size_t activity,
                                              double time, double score) {
  GT_REQUIRE(activity < n_act_, "activity index out of range");
  policy_->record_recommendation(Recommendation{
      rd_entity(rd), cd_entity(cd), static_cast<ContextId>(activity), time,
      score});
}

std::size_t DomainTrustBridge::refresh(TrustLevelTable& table,
                                       double now) const {
  GT_REQUIRE(table.client_domains() == n_cd_ &&
                 table.resource_domains() == n_rd_ &&
                 table.activities() == n_act_,
             "table dimensions do not match the bridge");
  // One activity at a time, the policy answers whole columns: the gates
  // from one count query per (RD, activity) and per (CD, activity) column,
  // then the forward levels of the gated CDs about each RD and the reverse
  // levels of the gated RDs about each CD.  The evaluated entries are the
  // ones a per-entry walk would evaluate, so every counter stays the same.
  std::vector<EntityId> cds(n_cd_);
  std::vector<EntityId> rds(n_rd_);
  for (std::size_t cd = 0; cd < n_cd_; ++cd) cds[cd] = cd_entity(cd);
  for (std::size_t rd = 0; rd < n_rd_; ++rd) rds[rd] = rd_entity(rd);
  // Per (CD, RD) pair of the current activity, indexed cd * n_rd_ + rd.
  std::vector<std::uint64_t> observed(n_cd_ * n_rd_);
  std::vector<TrustLevel> forward(n_cd_ * n_rd_);
  // Buffers reused by every column query.
  const std::size_t longest = std::max(n_cd_, n_rd_);
  std::vector<std::uint64_t> counts(longest);
  std::vector<EntityId> trusters;
  trusters.reserve(longest);
  std::vector<TrustLevel> levels(longest);

  std::size_t updated = 0;
  for (std::size_t act = 0; act < n_act_; ++act) {
    const auto ctx = static_cast<ContextId>(act);
    for (std::size_t rd = 0; rd < n_rd_; ++rd) {
      policy_->observation_counts(cds, rds[rd], ctx,
                                  std::span(counts).first(n_cd_));
      for (std::size_t cd = 0; cd < n_cd_; ++cd) {
        observed[cd * n_rd_ + rd] = counts[cd];
      }
    }
    for (std::size_t cd = 0; cd < n_cd_; ++cd) {
      policy_->observation_counts(rds, cds[cd], ctx,
                                  std::span(counts).first(n_rd_));
      for (std::size_t rd = 0; rd < n_rd_; ++rd) {
        observed[cd * n_rd_ + rd] += counts[rd];
      }
    }
    const auto gated = [&](std::size_t cd, std::size_t rd) {
      return observed[cd * n_rd_ + rd] >= min_transactions_;
    };

    for (std::size_t rd = 0; rd < n_rd_; ++rd) {
      trusters.clear();
      for (std::size_t cd = 0; cd < n_cd_; ++cd) {
        if (gated(cd, rd)) trusters.push_back(cds[cd]);
      }
      if (trusters.empty()) continue;
      policy_->offered_levels(trusters, rds[rd], ctx, now,
                              std::span(levels).first(trusters.size()));
      std::size_t k = 0;
      for (std::size_t cd = 0; cd < n_cd_; ++cd) {
        if (gated(cd, rd)) forward[cd * n_rd_ + rd] = levels[k++];
      }
    }

    for (std::size_t cd = 0; cd < n_cd_; ++cd) {
      trusters.clear();
      for (std::size_t rd = 0; rd < n_rd_; ++rd) {
        if (gated(cd, rd)) trusters.push_back(rds[rd]);
      }
      if (trusters.empty()) continue;
      policy_->offered_levels(trusters, cds[cd], ctx, now,
                              std::span(levels).first(trusters.size()));
      std::size_t k = 0;
      for (std::size_t rd = 0; rd < n_rd_; ++rd) {
        if (!gated(cd, rd)) continue;
        const TrustLevel symmetric =
            min_level(forward[cd * n_rd_ + rd], levels[k++]);
        if (table.get(cd, rd, act) != symmetric) {
          table.set(cd, rd, act, symmetric);
          ++updated;
        }
      }
    }
  }
  return updated;
}

TrustEngine& DomainTrustBridge::engine() {
  auto* gamma = dynamic_cast<GammaReputationPolicy*>(policy_.get());
  GT_REQUIRE(gamma != nullptr,
             "engine() requires the gamma backend; this bridge runs \"" +
                 policy_->name() + "\"");
  return gamma->engine();
}

}  // namespace gridtrust::trust
