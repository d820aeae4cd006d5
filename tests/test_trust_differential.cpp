// Seeded randomized differential test for trust::TrustEngine.
//
// The engine stores direct trust in (trustee, context) columns sorted by
// truster.  This test replays random operation streams — transactions and
// forget — against both the engine and a small std::map-keyed reference
// that scans recommenders in ascending id order, and requires every
// observable to agree exactly (==, not a tolerance): direct_record over
// every (truster, trustee, context) triple, reputation, eventual_trust, and
// the trust.* counter deltas.  A divergence reports the failing seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "random_decay.hpp"
#include "trust/alliance.hpp"
#include "trust/decay.hpp"
#include "trust/trust_engine.hpp"

namespace gridtrust::trust {
namespace {

using testing_support::random_decay;

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kSeeds = 1000;
constexpr int kOpsPerSeed = 40;
constexpr int kQueriesPerOp = 4;

/// The trust.* counters the engine bumps, in a fixed order.
const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "trust.gamma_evals", "trust.reputation_scans",
      "trust.reputation_records_scanned", "trust.decay_applications",
      "trust.transactions"};
  return names;
}

/// The map-keyed engine: one std::map over (truster, trustee, context), Ω
/// and recommender learning scanning every id in ascending order.  Its
/// counters tally what the engine's metrics must report.
class ReferenceEngine {
 public:
  ReferenceEngine(const TrustEngineConfig& normalized, std::size_t entities)
      : config_(normalized),
        entities_(entities),
        alliances_(entities),
        learned_(normalized.learn_recommender_weights ? entities * entities
                                                      : 0,
                 1.0) {}

  AllianceGraph& alliances() { return alliances_; }

  /// Expected values of counter_names(), in order.
  std::vector<double> counters() const {
    return {gamma_evals_, scans_, scanned_, decays_, transactions_};
  }

  void record_transaction(const Transaction& tx) {
    if (config_.learn_recommender_weights) learn_recommenders(tx);
    DirectTrustRecord& rec =
        direct_[Key{tx.truster, tx.trustee, tx.context}];
    if (rec.count == 0) {
      rec.level = tx.observed_score;
    } else {
      const double aged =
          decayed(rec.level, tx.time - rec.last_time, tx.context);
      rec.level = (1.0 - config_.learning_rate) * aged +
                  config_.learning_rate * tx.observed_score;
    }
    rec.last_time = tx.time;
    ++rec.count;
    transactions_ += 1.0;
  }

  std::optional<DirectTrustRecord> direct_record(EntityId x, EntityId y,
                                                 ContextId c) const {
    const auto it = direct_.find(Key{x, y, c});
    if (it == direct_.end()) return std::nullopt;
    return it->second;
  }

  std::optional<double> reputation(EntityId evaluator, EntityId target,
                                   ContextId c, double now) {
    scans_ += 1.0;
    double sum = 0.0;
    std::size_t n = 0;
    for (EntityId z = 0; z < entities_; ++z) {
      if (z == evaluator || z == target) continue;
      const auto it = direct_.find(Key{z, target, c});
      if (it == direct_.end()) continue;
      sum += decayed(it->second.level, now - it->second.last_time, c) *
             factor(evaluator, z, target);
      ++n;
    }
    scanned_ += static_cast<double>(n);
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
  }

  double eventual_trust(EntityId x, EntityId y, ContextId c, double now) {
    gamma_evals_ += 1.0;
    std::optional<double> theta;
    if (const auto rec = direct_record(x, y, c)) {
      theta = decayed(rec->level, now - rec->last_time, c);
    }
    const auto omega = reputation(x, y, c, now);
    if (theta && omega) return config_.alpha * *theta + config_.beta * *omega;
    if (theta) return *theta;
    if (omega) return *omega;
    return config_.default_score;
  }

  std::size_t forget(EntityId entity) {
    const std::size_t removed =
        std::erase_if(direct_, [entity](const auto& kv) {
          const auto& [truster, trustee, context] = kv.first;
          return truster == entity || trustee == entity;
        });
    if (!learned_.empty()) {
      for (EntityId x = 0; x < entities_; ++x) {
        learned_[x * entities_ + entity] = 1.0;
        learned_[entity * entities_ + x] = 1.0;
      }
    }
    return removed;
  }

 private:
  using Key = std::tuple<EntityId, EntityId, ContextId>;

  double decayed(double level, double age, ContextId c) {
    decays_ += 1.0;
    const auto it = config_.context_decay.find(c);
    const DecayFunction& fn =
        it != config_.context_decay.end() ? *it->second : *config_.decay;
    return level * fn.value(age);
  }

  double factor(EntityId evaluator, EntityId z, EntityId target) const {
    const double base = alliances_.allied(z, target)
                            ? config_.alliance_discount
                            : config_.independent_weight;
    if (!config_.learn_recommender_weights) return base;
    return base * learned_[evaluator * entities_ + z];
  }

  void learn_recommenders(const Transaction& tx) {
    double* weights = &learned_[tx.truster * entities_];
    for (EntityId z = 0; z < entities_; ++z) {
      if (z == tx.truster || z == tx.trustee) continue;
      const auto it = direct_.find(Key{z, tx.trustee, tx.context});
      if (it == direct_.end()) continue;
      const double error =
          std::abs(it->second.level - tx.observed_score) / 5.0;
      weights[z] += config_.recommender_learning_rate *
                    ((1.0 - error) - weights[z]);
      weights[z] = std::clamp(weights[z], 0.0, 1.0);
    }
  }

  TrustEngineConfig config_;
  std::size_t entities_;
  AllianceGraph alliances_;
  std::map<Key, DirectTrustRecord> direct_;
  std::vector<double> learned_;
  double gamma_evals_ = 0.0;
  double scans_ = 0.0;
  double scanned_ = 0.0;
  double decays_ = 0.0;
  double transactions_ = 0.0;
};

void assert_same_record(const std::optional<DirectTrustRecord>& got,
                        const std::optional<DirectTrustRecord>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  ASSERT_EQ(got->level, want->level);
  ASSERT_EQ(got->last_time, want->last_time);
  ASSERT_EQ(got->count, want->count);
}

/// Counter totals since `base`, in counter_names() order.
std::vector<double> counter_deltas(const obs::MetricsRegistry& registry,
                                   const std::vector<double>& base) {
  const obs::Snapshot snap = registry.snapshot();
  std::vector<double> out;
  for (std::size_t i = 0; i < counter_names().size(); ++i) {
    const auto it = snap.counters.find(counter_names()[i]);
    out.push_back((it == snap.counters.end() ? 0.0 : it->second) -
                  (base.empty() ? 0.0 : base[i]));
  }
  return out;
}

/// Replays one seeded operation stream against the engine and the
/// reference, comparing every observable after each operation.
void replay_seed(std::uint64_t seed, const obs::MetricsRegistry& registry) {
  Rng rng(seed);
  const std::size_t entities = 2 + rng.index(15);  // 2..16
  const std::size_t contexts = 1 + rng.index(4);   // 1..4
  TrustEngineConfig config;
  config.alpha = rng.uniform(0.0, 1.0);
  config.beta = rng.uniform(0.05, 1.0);
  config.learning_rate = rng.uniform(0.05, 1.0);
  config.alliance_discount = rng.uniform(0.0, 1.0);
  config.independent_weight = rng.uniform(0.5, 1.0);
  config.learn_recommender_weights = rng.bernoulli(0.5);
  config.recommender_learning_rate = rng.uniform(0.05, 1.0);
  config.decay = random_decay(rng);
  if (contexts > 1 && rng.bernoulli(0.5)) {
    config.context_decay[static_cast<ContextId>(rng.index(contexts))] =
        random_decay(rng);
  }

  const std::vector<double> base = counter_deltas(registry, {});
  TrustEngine engine(config, entities, contexts);
  ReferenceEngine ref(engine.config(), entities);
  const std::size_t alliances = rng.index(entities);
  for (std::size_t i = 0; i < alliances; ++i) {
    const auto a = static_cast<EntityId>(rng.index(entities));
    const auto b = static_cast<EntityId>(rng.index(entities));
    engine.alliances().ally(a, b);
    ref.alliances().ally(a, b);
  }

  const auto pick_pair = [&] {
    const auto x = static_cast<EntityId>(rng.index(entities));
    auto y = static_cast<EntityId>(rng.index(entities - 1));
    if (y >= x) ++y;  // y != x
    return std::pair{x, y};
  };
  double now = 0.0;
  for (int op = 0; op < kOpsPerSeed; ++op) {
    SCOPED_TRACE("operation " + std::to_string(op));
    if (rng.uniform() < 0.93) {
      if (rng.bernoulli(0.7)) now += rng.uniform(0.0, 3.0);
      const auto [x, y] = pick_pair();
      const Transaction tx{x, y, static_cast<ContextId>(rng.index(contexts)),
                           now, rng.uniform(1.0, 6.0)};
      engine.record_transaction(tx);
      ref.record_transaction(tx);
    } else {
      const auto entity = static_cast<EntityId>(rng.index(entities));
      ASSERT_EQ(engine.forget(entity), ref.forget(entity));
    }

    for (int q = 0; q < kQueriesPerOp; ++q) {
      const auto x = static_cast<EntityId>(rng.index(entities));
      const auto y = static_cast<EntityId>(rng.index(entities));
      const auto c = static_cast<ContextId>(rng.index(contexts));
      ASSERT_NO_FATAL_FAILURE(
          assert_same_record(engine.direct_record(x, y, c),
                             ref.direct_record(x, y, c)));
      const auto got = engine.reputation(x, y, c, now);
      const auto want = ref.reputation(x, y, c, now);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (want) {
        ASSERT_EQ(*got, *want);
      }
      ASSERT_EQ(engine.eventual_trust(x, y, c, now),
                ref.eventual_trust(x, y, c, now));
    }

    // The whole store: every triple holds the same record, or none.
    for (EntityId x = 0; x < entities; ++x) {
      for (EntityId y = 0; y < entities; ++y) {
        for (ContextId c = 0; c < contexts; ++c) {
          ASSERT_NO_FATAL_FAILURE(
              assert_same_record(engine.direct_record(x, y, c),
                                 ref.direct_record(x, y, c)));
        }
      }
    }
    ASSERT_EQ(counter_deltas(registry, base), ref.counters());
  }
}

TEST(TrustEngineDifferential, MatchesMapReferenceOnRandomStreams) {
  obs::MetricsRegistry registry;
  obs::install(&registry);
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    try {
      replay_seed(seed, registry);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "unexpected exception: " << error.what();
    }
    if (HasFailure()) {
      ADD_FAILURE() << "TrustEngine diverged from the map reference at seed "
                    << seed;
      break;
    }
  }
  obs::install(nullptr);
}

}  // namespace
}  // namespace gridtrust::trust
