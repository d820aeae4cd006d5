#include "trust/fuzzy_policy.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace gridtrust::trust {

namespace {

// Triangular membership sets over the [1, 6] trust scale.  low peaks at 1,
// medium at the midpoint 3.5, high at 6; neighbouring sets overlap so every
// in-range score carries total membership 1.
constexpr double kLo = 1.0;
constexpr double kMid = 3.5;
constexpr double kHi = 6.0;

// Output-set centroids for defuzzification (center-of-sets).
constexpr std::array<double, 3> kCentroids = {kLo, kMid, kHi};

double rising(double x, double from, double to) {
  if (x <= from) return 0.0;
  if (x >= to) return 1.0;
  return (x - from) / (to - from);
}

}  // namespace

std::array<double, 3> FuzzyReputationPolicy::fuzzify(double score) {
  const double x = std::clamp(score, kLo, kHi);
  std::array<double, 3> mu = {0.0, 0.0, 0.0};
  if (x <= kMid) {
    mu[1] = rising(x, kLo, kMid);
    mu[0] = 1.0 - mu[1];
  } else {
    mu[2] = rising(x, kMid, kHi);
    mu[1] = 1.0 - mu[2];
  }
  return mu;
}

FuzzyTrustConfig FuzzyReputationPolicy::validated(FuzzyTrustConfig config) {
  GT_REQUIRE(config.learning_rate > 0.0 && config.learning_rate <= 1.0,
             "fuzzy learning rate must be in (0, 1]");
  GT_REQUIRE(config.default_score >= 1.0 && config.default_score <= 6.0,
             "fuzzy default score must be on the [1, 6] trust scale");
  return config;
}

FuzzyReputationPolicy::FuzzyReputationPolicy(FuzzyTrustConfig config,
                                             std::size_t entities,
                                             std::size_t contexts)
    : config_(validated(config)), entities_(entities), contexts_(contexts) {
  GT_REQUIRE(entities > 0, "need at least one entity");
  GT_REQUIRE(contexts > 0, "need at least one context");
}

const std::string& FuzzyReputationPolicy::name() const {
  static const std::string kName = "fuzzy";
  return kName;
}

void FuzzyReputationPolicy::check(EntityId entity, ContextId context) const {
  GT_REQUIRE(entity < entities_, "entity id out of range");
  GT_REQUIRE(context < contexts_, "context id out of range");
}

void FuzzyReputationPolicy::record_transaction(const Transaction& tx) {
  check(tx.truster, tx.context);
  check(tx.trustee, tx.context);
  GT_REQUIRE(tx.truster != tx.trustee,
             "an entity cannot record trust in itself");
  GT_REQUIRE(tx.observed_score >= 1.0 && tx.observed_score <= 6.0,
             "observed score must be on the [1, 6] trust scale");
  Record& rec = records_[StreamKey{tx.trustee, tx.context, tx.truster}];
  GT_REQUIRE(rec.count == 0 || tx.time >= rec.last_time,
             "transactions must arrive in non-decreasing time order");
  if (rec.count == 0) {
    rec.level = tx.observed_score;
  } else {
    rec.level = (1.0 - config_.learning_rate) * rec.level +
                config_.learning_rate * tx.observed_score;
  }
  rec.last_time = tx.time;
  ++rec.count;
  ++tx_count_;
}

std::optional<double> FuzzyReputationPolicy::direct_component(
    EntityId truster, EntityId trustee, ContextId context, double now) const {
  check(truster, context);
  check(trustee, context);
  const auto it = records_.find(StreamKey{trustee, context, truster});
  if (it == records_.end()) return std::nullopt;
  GT_REQUIRE(now >= it->second.last_time,
             "query time precedes last transaction");
  return it->second.level;
}

std::optional<double> FuzzyReputationPolicy::reputation_component(
    EntityId evaluator, EntityId target, ContextId context, double now) const {
  check(evaluator, context);
  check(target, context);
  return inputs(column(target, context, now, evaluator), evaluator).indirect;
}

FuzzyReputationPolicy::Column FuzzyReputationPolicy::column(
    EntityId trustee, ContextId context, double now,
    std::optional<EntityId> unchecked) const {
  const auto first = records_.lower_bound(StreamKey{trustee, context, 0});
  auto last = first;
  for (; last != records_.end() && last->first.trustee == trustee &&
         last->first.context == context;
       ++last) {
    GT_REQUIRE(last->first.truster == unchecked ||
                   now >= last->second.last_time,
               "query time precedes last transaction");
  }
  return Column(first, last);
}

FuzzyReputationPolicy::Inputs FuzzyReputationPolicy::inputs(
    Column column, EntityId evaluator) {
  // Interface contract: the evaluator's own record never counts as
  // third-party evidence (and the target holds none about itself).
  Inputs out;
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [key, record] : column) {
    if (key.truster == evaluator) {
      out.direct = record.level;
      continue;
    }
    sum += record.level;
    ++n;
  }
  if (n > 0) out.indirect = sum / static_cast<double>(n);
  return out;
}

double FuzzyReputationPolicy::infer(std::optional<double> direct,
                                    std::optional<double> indirect) const {
  if (!direct && !indirect) return config_.default_score;
  double weight_sum = 0.0;
  double value_sum = 0.0;
  const auto fire = [&](double strength, std::size_t output_set) {
    if (strength <= 0.0) return;
    ++rule_firings_;
    weight_sum += strength;
    value_sum += strength * kCentroids[output_set];
  };
  if (direct && indirect) {
    const std::array<double, 3> d = fuzzify(*direct);
    const std::array<double, 3> i = fuzzify(*indirect);
    // Rule base: rows = direct set, columns = indirect set.  Direct
    // experience dominates on conflict (a high direct / low indirect pair
    // lands on medium-high, not medium), echoing α > β.
    static constexpr std::size_t kRules[3][3] = {
        {0, 0, 1},  // direct low: stays low unless reputation is glowing
        {0, 1, 2},  // direct medium: follows the indirect signal
        {1, 2, 2},  // direct high: only collapses on terrible reputation
    };
    for (std::size_t dj = 0; dj < 3; ++dj) {
      for (std::size_t ik = 0; ik < 3; ++ik) {
        fire(std::min(d[dj], i[ik]), kRules[dj][ik]);
      }
    }
  } else {
    // Single-input rules: identity mapping of the available evidence.
    const std::array<double, 3> mu = fuzzify(direct ? *direct : *indirect);
    for (std::size_t j = 0; j < 3; ++j) fire(mu[j], j);
  }
  if (weight_sum <= 0.0) return config_.default_score;
  return value_sum / weight_sum;
}

double FuzzyReputationPolicy::evaluate(EntityId truster, EntityId trustee,
                                       ContextId context, double now) const {
  double score = 0.0;
  scores(std::span<const EntityId>(&truster, 1), trustee, context, now,
         std::span<double>(&score, 1));
  return score;
}

void FuzzyReputationPolicy::scores(std::span<const EntityId> trusters,
                                   EntityId trustee, ContextId context,
                                   double now, std::span<double> out) const {
  GT_REQUIRE(out.size() == trusters.size(), "need one output per truster");
  if (trusters.empty()) return;
  for (const EntityId truster : trusters) check(truster, context);
  check(trustee, context);
  const Column about = column(trustee, context, now);
  evaluations_ += trusters.size();
  for (std::size_t k = 0; k < trusters.size(); ++k) {
    const Inputs in = inputs(about, trusters[k]);
    out[k] = infer(in.direct, in.indirect);
  }
}

void FuzzyReputationPolicy::offered_levels(std::span<const EntityId> trusters,
                                           EntityId trustee,
                                           ContextId context, double now,
                                           std::span<TrustLevel> out) const {
  GT_REQUIRE(out.size() == trusters.size(), "need one output per truster");
  std::vector<double> score(trusters.size());
  scores(trusters, trustee, context, now, score);
  for (std::size_t k = 0; k < score.size(); ++k) {
    out[k] = quantize_offered_level(score[k]);
  }
}

std::uint64_t FuzzyReputationPolicy::observation_count(
    EntityId truster, EntityId trustee, ContextId context) const {
  check(truster, context);
  check(trustee, context);
  const auto it = records_.find(StreamKey{trustee, context, truster});
  return it != records_.end() ? it->second.count : 0;
}

std::size_t FuzzyReputationPolicy::forget(EntityId entity) {
  GT_REQUIRE(entity < entities_, "entity id out of range");
  std::size_t removed = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->first.truster == entity || it->first.trustee == entity) {
      it = records_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::pair<std::string, std::uint64_t>>
FuzzyReputationPolicy::counters() const {
  return {{"evaluations", evaluations_}, {"rule_firings", rule_firings_}};
}

}  // namespace gridtrust::trust
