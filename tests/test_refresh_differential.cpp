// Seeded randomized differential test for the column queries
// (ReputationPolicy::observation_counts / offered_levels) and the agent
// bridge's column-at-a-time refresh.
//
// Every seed builds two identical policies from one random backend and
// configuration, wires the same alliances into both, and replays one random
// stream of transactions, recommendations and forget calls into both.  The
// first policy sits behind a DomainTrustBridge; the second is the twin.
// After every operation the test requires, with exact == (no tolerance):
//   * each column query on the first policy, over a random truster list
//     (any order, duplicates allowed), to equal a loop of the per-entry
//     calls on the twin, counters() deltas included, with one evaluation
//     counted per truster;
//   * for the Γ backends, every offered level, and every Γ of the
//     engine's column form, to equal one computed from the engine's raw
//     records by an in-test copy of the per-entry formula (Θ from the
//     truster's own record, Ω over the other records in ascending truster
//     order, each decayed level times R(z, y)), so a mutation of the
//     shared kernel shows too;
//   * for fuzzy, every Ω to equal the mean of the other entities' record
//     levels, replayed in the test and summed in ascending entity order;
//   * DomainTrustBridge::refresh to equal an in-test copy of the per-entry
//     refresh run on the twin: same table, return value and version().
// The twin records into one obs registry; the first policy records into
// one for its updates and one for its queries and refreshes.  At the end
// of a seed the first side's totals must equal the twin's, and its query
// registry's Γ counters must equal what the in-test formula tallies.  A
// divergence reports the failing seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "random_decay.hpp"
#include "trust/agents.hpp"
#include "trust/decay.hpp"
#include "trust/gamma_policy.hpp"
#include "trust/purging_policy.hpp"
#include "trust/reputation_registry.hpp"
#include "trust/trust_engine.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::trust {
namespace {

using testing_support::random_decay;

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kSeeds = 1000;
constexpr int kOpsPerSeed = 24;
constexpr int kQueriesPerOp = 3;

const std::vector<std::string>& backends() {
  static const std::vector<std::string> names = {
      "gamma", "beta", "fuzzy", "purge:gamma", "purge:beta"};
  return names;
}

ReputationParams random_params(Rng& rng, std::size_t entities,
                               std::size_t contexts) {
  ReputationParams params;
  params.entities = entities;
  params.contexts = contexts;
  TrustEngineConfig& gamma = params.gamma;
  gamma.alpha = rng.uniform(0.0, 1.0);
  gamma.beta = rng.uniform(0.05, 1.0);
  gamma.learning_rate = rng.uniform(0.05, 1.0);
  gamma.alliance_discount = rng.uniform(0.0, 1.0);
  gamma.independent_weight = rng.uniform(0.5, 1.0);
  gamma.learn_recommender_weights = rng.bernoulli(0.5);
  gamma.recommender_learning_rate = rng.uniform(0.05, 1.0);
  gamma.default_score = rng.uniform(1.0, 6.0);
  gamma.decay = random_decay(rng);
  for (std::size_t c = 0; c < contexts; ++c) {
    if (rng.bernoulli(0.3)) {
      gamma.context_decay[static_cast<ContextId>(c)] = random_decay(rng);
    }
  }
  params.beta.evidence_half_life =
      rng.bernoulli(0.5) ? 0.0 : rng.uniform(2.0, 40.0);
  params.fuzzy.learning_rate = rng.uniform(0.05, 1.0);
  params.purge.deviation_threshold = rng.uniform(0.5, 3.0);
  params.purge.min_consensus = 1 + rng.index(4);
  params.purge.consensus_rate = rng.uniform(0.05, 1.0);
  return params;
}

/// The Γ engine behind a gamma or purge:gamma policy, else nullptr.
const TrustEngine* gamma_engine(const ReputationPolicy& policy) {
  if (const auto* gamma = dynamic_cast<const GammaReputationPolicy*>(&policy)) {
    return &gamma->engine();
  }
  if (const auto* purge =
          dynamic_cast<const PurgingReputationPolicy*>(&policy)) {
    return gamma_engine(purge->base());
  }
  return nullptr;
}

/// Totals of the Γ counters, as the engine must report them.
struct GammaTally {
  double evals = 0.0;
  double scanned = 0.0;
  double decays = 0.0;
};

/// Γ(x, y, t, c) from the engine's raw records, computed per entry the way
/// the engine always has: Θ from x's own record; Ω over every other
/// record about (y, c) in ascending truster order, each decayed level
/// times R(z, y) as x sees it.  Tallies what the engine's obs counters
/// must report for the evaluation.
double reference_gamma(const TrustEngine& engine, EntityId x, EntityId y,
                       ContextId c, double now, GammaTally& tally) {
  const TrustEngineConfig& config = engine.config();  // α, β normalized
  const auto it = config.context_decay.find(c);
  const DecayFunction& decay =
      it != config.context_decay.end() ? *it->second : *config.decay;
  tally.evals += 1.0;
  std::optional<double> theta;
  if (const auto rec = engine.direct_record(x, y, c)) {
    theta = rec->level * decay.value(now - rec->last_time);
    tally.decays += 1.0;
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (EntityId z = 0; z < engine.entity_count(); ++z) {
    if (z == x) continue;
    const auto rec = engine.direct_record(z, y, c);
    if (!rec) continue;
    sum += rec->level * decay.value(now - rec->last_time) *
           engine.recommender_factor(x, z, y);
    ++n;
  }
  tally.scanned += static_cast<double>(n);
  tally.decays += static_cast<double>(n);
  if (theta && n > 0) {
    return config.alpha * *theta +
           config.beta * (sum / static_cast<double>(n));
  }
  if (theta) return *theta;
  if (n > 0) return sum / static_cast<double>(n);
  return config.default_score;
}

/// Fuzzy's record levels as the test replays them, keyed (truster,
/// trustee, context): each is the EWMA of its stream's observed scores.
using FuzzyLevels = std::map<std::tuple<EntityId, EntityId, ContextId>, double>;

void fold_fuzzy(FuzzyLevels& levels, EntityId truster, EntityId trustee,
                ContextId context, double score, double learning_rate) {
  const auto [it, fresh] =
      levels.try_emplace({truster, trustee, context}, score);
  if (!fresh) {
    it->second = (1.0 - learning_rate) * it->second + learning_rate * score;
  }
}

/// Fuzzy's Ω for evaluator x about (y, c): the mean of every other
/// entity's record level, summed in ascending entity order.
std::optional<double> reference_fuzzy_omega(const FuzzyLevels& levels,
                                            std::size_t entities, EntityId x,
                                            EntityId y, ContextId c) {
  double sum = 0.0;
  std::size_t n = 0;
  for (EntityId z = 0; z < entities; ++z) {
    if (z == x) continue;
    const auto it = levels.find({z, y, c});
    if (it == levels.end()) continue;
    sum += it->second;
    ++n;
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

/// The bridge's per-entry refresh, as it was before the column queries:
/// for every (CD, RD, activity), the two directed counts gate the entry,
/// then the forward and the reverse level are asked for one at a time.
/// `on_eval` sees every evaluated (truster, trustee, context).
template <typename OnEval>
std::size_t per_entry_refresh(const ReputationPolicy& policy,
                              std::size_t n_cd, std::size_t n_rd,
                              std::size_t n_act, std::uint64_t min_tx,
                              TrustLevelTable& table, double now,
                              OnEval&& on_eval) {
  std::size_t updated = 0;
  for (std::size_t cd = 0; cd < n_cd; ++cd) {
    for (std::size_t rd = 0; rd < n_rd; ++rd) {
      for (std::size_t act = 0; act < n_act; ++act) {
        const auto x = static_cast<EntityId>(cd);
        const auto y = static_cast<EntityId>(n_cd + rd);
        const auto ctx = static_cast<ContextId>(act);
        const std::uint64_t observations =
            policy.observation_count(x, y, ctx) +
            policy.observation_count(y, x, ctx);
        if (observations < min_tx) continue;
        const TrustLevel forward = policy.offered_level(x, y, ctx, now);
        const TrustLevel reverse = policy.offered_level(y, x, ctx, now);
        on_eval(x, y, ctx);
        on_eval(y, x, ctx);
        const TrustLevel symmetric = min_level(forward, reverse);
        if (table.get(cd, rd, act) != symmetric) {
          table.set(cd, rd, act, symmetric);
          ++updated;
        }
      }
    }
  }
  return updated;
}

/// Counter totals over `registries`, zero entries dropped.
std::map<std::string, double> counter_totals(
    std::initializer_list<const obs::MetricsRegistry*> registries) {
  std::map<std::string, double> out;
  for (const obs::MetricsRegistry* registry : registries) {
    for (const auto& [name, value] : registry->snapshot().counters) {
      out[name] += value;
    }
  }
  std::erase_if(out, [](const auto& entry) { return entry.second == 0.0; });
  return out;
}

double total(const std::map<std::string, double>& totals,
             const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

void expect_same_tables(const TrustLevelTable& got,
                        const TrustLevelTable& want) {
  ASSERT_EQ(got.version(), want.version());
  for (std::size_t cd = 0; cd < want.client_domains(); ++cd) {
    for (std::size_t rd = 0; rd < want.resource_domains(); ++rd) {
      for (std::size_t act = 0; act < want.activities(); ++act) {
        ASSERT_EQ(got.get(cd, rd, act), want.get(cd, rd, act))
            << "entry (" << cd << ", " << rd << ", " << act << ")";
      }
    }
  }
}

/// Replays one seeded stream against the bridge's policy and its twin.
void replay_seed(std::uint64_t seed) {
  Rng rng(seed);
  const std::string& backend = backends()[rng.index(backends().size())];
  const std::size_t entities = 2 + rng.index(15);  // 2..16
  const std::size_t contexts = 1 + rng.index(4);   // 1..4
  const std::size_t n_cd = 1 + rng.index(entities - 1);
  const std::size_t n_rd = entities - n_cd;
  const std::uint64_t min_tx = 1 + rng.index(3);
  SCOPED_TRACE(backend + ", " + std::to_string(n_cd) + " CDs, " +
               std::to_string(n_rd) + " RDs, " + std::to_string(contexts) +
               " contexts");
  const ReputationParams params = random_params(rng, entities, contexts);

  DomainTrustBridge bridge(make_reputation_policy(backend, params), n_cd,
                           n_rd, contexts, min_tx);
  ReputationPolicy& policy = bridge.policy();
  const std::unique_ptr<ReputationPolicy> twin =
      make_reputation_policy(backend, params);
  const TrustEngine* engine = gamma_engine(policy);
  const bool fuzzy = backend == "fuzzy";
  const double fuzzy_rate = params.fuzzy.learning_rate;
  FuzzyLevels fuzzy_levels;
  const std::size_t alliances = rng.index(entities);
  for (std::size_t i = 0; i < alliances; ++i) {
    const auto a = static_cast<EntityId>(rng.index(entities));
    const auto b = static_cast<EntityId>(rng.index(entities));
    if (AllianceGraph* graph = policy.alliance_graph()) graph->ally(a, b);
    if (AllianceGraph* graph = twin->alliance_graph()) graph->ally(a, b);
  }
  TrustLevelTable table(n_cd, n_rd, contexts);
  TrustLevelTable twin_table(n_cd, n_rd, contexts);
  Rng table_rng = rng.stream(1);
  table.randomize(table_rng);
  table_rng = rng.stream(1);
  twin_table.randomize(table_rng);

  // `on` switches the installed registry.
  obs::MetricsRegistry side_updates;
  obs::MetricsRegistry side_queries;
  obs::MetricsRegistry twin_registry;
  const auto on = [](obs::MetricsRegistry& registry) {
    obs::install(&registry);
  };
  GammaTally tally;

  const auto pick_pair = [&] {
    const auto x = static_cast<EntityId>(rng.index(entities));
    auto y = static_cast<EntityId>(rng.index(entities - 1));
    if (y >= x) ++y;  // y != x
    return std::pair{x, y};
  };
  double now = 0.0;
  for (int op = 0; op < kOpsPerSeed; ++op) {
    SCOPED_TRACE("operation " + std::to_string(op));
    if (rng.bernoulli(0.7)) now += rng.uniform(0.0, 3.0);
    const double roll = rng.uniform();
    if (roll < 0.55) {
      const auto [x, y] = pick_pair();
      const Transaction tx{x, y, static_cast<ContextId>(rng.index(contexts)),
                           now, rng.uniform(1.0, 6.0)};
      on(side_updates);
      policy.record_transaction(tx);
      if (fuzzy) {
        fold_fuzzy(fuzzy_levels, tx.truster, tx.trustee, tx.context,
                   tx.observed_score, fuzzy_rate);
      }
      on(twin_registry);
      twin->record_transaction(tx);
    } else if (roll < 0.9) {
      const auto [x, y] = pick_pair();
      const Recommendation rec{x, y,
                               static_cast<ContextId>(rng.index(contexts)),
                               now, rng.uniform(1.0, 6.0)};
      on(side_updates);
      policy.record_recommendation(rec);
      if (fuzzy) {
        fold_fuzzy(fuzzy_levels, rec.recommender, rec.target, rec.context,
                   rec.score, fuzzy_rate);
      }
      on(twin_registry);
      twin->record_recommendation(rec);
    } else if (roll < 0.95) {
      const auto entity = static_cast<EntityId>(rng.index(entities));
      on(side_updates);
      const std::size_t removed = policy.forget(entity);
      std::erase_if(fuzzy_levels, [&](const auto& entry) {
        return std::get<0>(entry.first) == entity ||
               std::get<1>(entry.first) == entity;
      });
      on(twin_registry);
      ASSERT_EQ(removed, twin->forget(entity));
    }

    for (int q = 0; q < kQueriesPerOp; ++q) {
      const auto trustee = static_cast<EntityId>(rng.index(entities));
      const auto ctx = static_cast<ContextId>(rng.index(contexts));
      std::vector<EntityId> trusters(rng.index(entities + 2));
      for (EntityId& x : trusters) {
        x = static_cast<EntityId>(rng.index(entities));
      }

      std::vector<std::uint64_t> counts(trusters.size());
      on(side_queries);
      policy.observation_counts(trusters, trustee, ctx, counts);
      on(twin_registry);
      for (std::size_t k = 0; k < trusters.size(); ++k) {
        ASSERT_EQ(counts[k], twin->observation_count(trusters[k], trustee, ctx))
            << "observation_counts entry " << k;
      }

      const auto side_before = policy.counters();
      const auto twin_before = twin->counters();
      std::vector<TrustLevel> levels(trusters.size());
      on(side_queries);
      policy.offered_levels(trusters, trustee, ctx, now, levels);
      on(twin_registry);
      for (std::size_t k = 0; k < trusters.size(); ++k) {
        ASSERT_EQ(levels[k],
                  twin->offered_level(trusters[k], trustee, ctx, now))
            << "offered_levels entry " << k;
        if (engine != nullptr) {
          const double gamma =
              reference_gamma(*engine, trusters[k], trustee, ctx, now, tally);
          ASSERT_EQ(levels[k],
                    min_level(quantize_level(gamma), kMaxOfferedLevel))
              << "offered_levels entry " << k << " against the formula";
        }
      }
      if (engine != nullptr) {
        // Γ itself, before quantization hides its last bits.
        obs::install(nullptr);
        std::vector<double> gamma(trusters.size());
        engine->eventual_trust(trusters, trustee, ctx, now, gamma);
        GammaTally unused;
        for (std::size_t k = 0; k < trusters.size(); ++k) {
          ASSERT_EQ(gamma[k], reference_gamma(*engine, trusters[k], trustee,
                                              ctx, now, unused))
              << "column Γ entry " << k << " against the formula";
        }
      }
      const auto side_after = policy.counters();
      const auto twin_after = twin->counters();
      ASSERT_EQ(side_after.size(), twin_after.size());
      for (std::size_t i = 0; i < side_after.size(); ++i) {
        const auto& [name, value] = side_after[i];
        ASSERT_EQ(name, twin_after[i].first);
        ASSERT_EQ(value - side_before[i].second,
                  twin_after[i].second - twin_before[i].second)
            << "counter " << name;
        // Every backend counts one evaluation per truster.
        if (name == "gamma_evals" || name == "evaluations") {
          ASSERT_EQ(value - side_before[i].second, trusters.size())
              << "counter " << name;
        }
      }
      if (fuzzy) {
        obs::install(nullptr);
        for (const EntityId x : trusters) {
          ASSERT_EQ(policy.reputation_component(x, trustee, ctx, now),
                    reference_fuzzy_omega(fuzzy_levels, entities, x, trustee,
                                          ctx))
              << "fuzzy Ω of truster " << x << " against the replayed records";
        }
      }
    }

    on(side_queries);
    const std::size_t updated = bridge.refresh(table, now);
    on(twin_registry);
    const std::size_t want = per_entry_refresh(
        *twin, n_cd, n_rd, contexts, min_tx, twin_table, now,
        [&](EntityId x, EntityId y, ContextId c) {
          if (engine != nullptr) {
            (void)reference_gamma(*engine, x, y, c, now, tally);
          }
        });
    obs::install(nullptr);
    ASSERT_EQ(updated, want) << "refresh return value";
    ASSERT_NO_FATAL_FAILURE(expect_same_tables(table, twin_table));
  }
  obs::install(nullptr);

  ASSERT_EQ(counter_totals({&side_updates, &side_queries}),
            counter_totals({&twin_registry}));
  const std::map<std::string, double> queries =
      counter_totals({&side_queries});
  ASSERT_EQ(total(queries, "trust.gamma_evals"), tally.evals);
  ASSERT_EQ(total(queries, "trust.reputation_scans"), tally.evals);
  ASSERT_EQ(total(queries, "trust.reputation_records_scanned"),
            tally.scanned);
  ASSERT_EQ(total(queries, "trust.decay_applications"), tally.decays);

  // A query before a record's last transaction throws on both paths.
  const auto ctx = static_cast<ContextId>(rng.index(contexts));
  for (EntityId trustee = 0; trustee < entities; ++trustee) {
    std::vector<EntityId> trusters(entities);
    for (EntityId x = 0; x < entities; ++x) trusters[x] = x;
    std::vector<TrustLevel> levels(entities);
    bool column_threw = false;
    try {
      policy.offered_levels(trusters, trustee, ctx, now - 1.0, levels);
    } catch (const PreconditionError&) {
      column_threw = true;
    }
    bool entry_threw = false;
    try {
      for (const EntityId x : trusters) {
        (void)twin->offered_level(x, trustee, ctx, now - 1.0);
      }
    } catch (const PreconditionError&) {
      entry_threw = true;
    }
    ASSERT_EQ(column_threw, entry_threw) << "time check, trustee " << trustee;
  }
}

TEST(RefreshDifferential, ColumnQueriesAndRefreshMatchPerEntryCalls) {
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    try {
      replay_seed(seed);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "unexpected exception: " << error.what();
    }
    obs::install(nullptr);
    if (HasFailure()) {
      ADD_FAILURE() << "column queries diverged from per-entry calls at seed "
                    << seed;
      break;
    }
  }
}

}  // namespace
}  // namespace gridtrust::trust
