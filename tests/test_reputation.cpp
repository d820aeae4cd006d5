// Conformance suite for the pluggable reputation backends: the interface
// contract of trust/reputation_policy.hpp over every registered backend,
// the registry's resolution rules, and the purging decorator's filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "grid/grid_system.hpp"
#include "lab/catalog.hpp"
#include "report_text.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario_builder.hpp"
#include "trust/agents.hpp"
#include "trust/gamma_policy.hpp"
#include "trust/reputation_registry.hpp"
#include "trust/trust_engine.hpp"
#include "workload/request_gen.hpp"

namespace gridtrust::trust {
namespace {

ReputationParams params_for(std::size_t entities, std::size_t contexts) {
  ReputationParams params;
  params.entities = entities;
  params.contexts = contexts;
  return params;
}

/// Every backend the tournament fields, including one composite.
const std::vector<std::string>& all_backends() {
  static const std::vector<std::string> names = {"gamma", "beta", "fuzzy",
                                                 "purge:gamma"};
  return names;
}

/// A small deterministic transaction stream over `entities` entities: a
/// fixed scoring pattern, strictly increasing times.
std::vector<Transaction> fixed_stream(std::size_t entities) {
  std::vector<Transaction> stream;
  double t = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    for (EntityId a = 0; a < entities; ++a) {
      for (EntityId b = 0; b < entities; ++b) {
        if (a == b) continue;
        t += 1.0;
        const double score =
            1.0 + static_cast<double>(
                      (a * 7 + b * 3 + static_cast<EntityId>(pass)) % 11) *
                      0.5;
        stream.push_back({a, b, 0, t, std::min(score, 6.0)});
      }
    }
  }
  return stream;
}

// ------------------------------------------------------------- registry

TEST(ReputationRegistry, ListsBuiltinsSorted) {
  const std::vector<std::string> names = reputation_backend_names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* builtin : {"beta", "fuzzy", "gamma"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), builtin), names.end())
        << builtin;
  }
}

TEST(ReputationRegistry, ResolvesCompositesRecursively) {
  EXPECT_TRUE(reputation_backend_exists("gamma"));
  EXPECT_TRUE(reputation_backend_exists("purge"));
  EXPECT_TRUE(reputation_backend_exists("purge:beta"));
  EXPECT_TRUE(reputation_backend_exists("purge:purge:fuzzy"));
  EXPECT_FALSE(reputation_backend_exists("nope"));
  EXPECT_FALSE(reputation_backend_exists("purge:nope"));

  const auto params = params_for(4, 1);
  EXPECT_EQ(make_reputation_policy("purge", params)->name(), "purge:gamma");
  EXPECT_EQ(make_reputation_policy("purge:fuzzy", params)->name(),
            "purge:fuzzy");
  EXPECT_EQ(make_reputation_policy("purge:purge:beta", params)->name(),
            "purge:purge:beta");
  EXPECT_THROW((void)make_reputation_policy("nope", params),
               PreconditionError);
}

TEST(ReputationRegistry, PurgeCompositesStackUpToTheDepthCeiling) {
  const auto params = params_for(4, 1);
  EXPECT_EQ(make_reputation_policy("purge:purge:gamma", params)->name(),
            "purge:purge:gamma");
  EXPECT_EQ(
      make_reputation_policy("purge:purge:purge:purge:beta", params)->name(),
      "purge:purge:purge:purge:beta");
  // Legacy shorthand: a trailing bare "purge" decorates the default gamma.
  EXPECT_EQ(make_reputation_policy("purge:purge", params)->name(),
            "purge:purge:gamma");
  EXPECT_TRUE(reputation_backend_exists("purge:purge:purge:purge:gamma"));
}

TEST(ReputationRegistry, RejectsOverDeepPurgeComposites) {
  const auto params = params_for(4, 1);
  const std::string deep = "purge:purge:purge:purge:purge:gamma";  // 5 layers
  EXPECT_FALSE(reputation_backend_exists(deep));
  try {
    (void)make_reputation_policy(deep, params);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("nested too deeply"),
              std::string::npos)
        << e.what();
  }
  // A dangling prefix names no base backend at all.
  EXPECT_FALSE(reputation_backend_exists("purge:"));
  EXPECT_THROW((void)make_reputation_policy("purge:", params),
               PreconditionError);
  // Scenario validation rejects the over-deep name before any run starts.
  EXPECT_THROW((void)sim::ScenarioBuilder()
                   .tasks(4)
                   .heuristic("mct")
                   .with_reputation_backend(deep)
                   .build(),
               PreconditionError);
}

TEST(ReputationRegistry, BackendConfigAppliesOverrides) {
  ReputationBackendConfig config;
  EXPECT_EQ(config.name, "gamma");
  TrustEngineConfig gamma;
  gamma.default_score = 2.5;
  const auto policy = make_reputation_policy(config, gamma, 3, 1);
  EXPECT_EQ(policy->stranger_default(), 2.5);

  config.name = "no.such.backend";
  EXPECT_THROW((void)make_reputation_policy(config, gamma, 3, 1),
               PreconditionError);
}

TEST(ReputationRegistry, PurgeOverridesReachTheDecorator) {
  ReputationParams params = params_for(4, 1);
  params.purge.min_consensus = 1;
  params.purge.deviation_threshold = 0.5;
  const auto policy = make_reputation_policy("purge:gamma", params);
  // Consensus rests on a single report; the deviating second one is purged.
  policy->record_recommendation({1, 0, 0, 1.0, 5.0});
  policy->record_recommendation({2, 0, 0, 2.0, 1.0});
  const auto counters = policy->counters();
  ASSERT_GE(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "purged_recommendations");
  EXPECT_EQ(counters[0].second, 1u);
}

// ---------------------------------------------------------- conformance

class BackendConformance : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::ValuesIn(all_backends()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == ':') c = '_';
                           }
                           return name;
                         });

TEST_P(BackendConformance, ReportsItsRegistryNameAndShape) {
  const auto policy = make_reputation_policy(GetParam(), params_for(5, 2));
  EXPECT_EQ(policy->name(), GetParam());
  EXPECT_EQ(policy->entity_count(), 5u);
  EXPECT_EQ(policy->context_count(), 2u);
}

TEST_P(BackendConformance, StrangersEvaluateToTheDocumentedDefault) {
  const auto policy = make_reputation_policy(GetParam(), params_for(4, 1));
  const double d = policy->stranger_default();
  EXPECT_GE(d, 1.0);
  EXPECT_LE(d, 6.0);
  EXPECT_EQ(policy->evaluate(0, 1, 0, 10.0), d);
  EXPECT_FALSE(policy->direct_component(0, 1, 0, 10.0).has_value());
  EXPECT_EQ(policy->observation_count(0, 1, 0), 0u);
}

TEST_P(BackendConformance, ReplaysDeterministically) {
  const auto first = make_reputation_policy(GetParam(), params_for(5, 1));
  const auto second = make_reputation_policy(GetParam(), params_for(5, 1));
  const auto stream = fixed_stream(5);
  for (const Transaction& tx : stream) {
    first->record_transaction(tx);
    second->record_transaction(tx);
  }
  const double now = stream.back().time + 1.0;
  for (EntityId x = 0; x < 5; ++x) {
    for (EntityId y = 0; y < 5; ++y) {
      if (x == y) continue;
      const double a = first->evaluate(x, y, 0, now);
      EXPECT_EQ(a, second->evaluate(x, y, 0, now));
      EXPECT_GE(a, 1.0);
      EXPECT_LE(a, 6.0);
      // Repeated evaluation is side-effect free (counters aside).
      EXPECT_EQ(a, first->evaluate(x, y, 0, now));
    }
  }
  EXPECT_EQ(first->transaction_count(), second->transaction_count());
}

TEST_P(BackendConformance, ForgetResetsTheEntityToStranger) {
  const auto policy = make_reputation_policy(GetParam(), params_for(4, 1));
  for (const Transaction& tx : fixed_stream(4)) {
    policy->record_transaction(tx);
  }
  const double now = 100.0;
  ASSERT_NE(policy->evaluate(0, 1, 0, now), policy->stranger_default());
  EXPECT_GT(policy->forget(1), 0u);
  EXPECT_EQ(policy->evaluate(0, 1, 0, now), policy->stranger_default());
  EXPECT_EQ(policy->observation_count(0, 1, 0), 0u);
  // Unrelated pairs keep their evidence.
  EXPECT_GT(policy->observation_count(0, 2, 0), 0u);
}

TEST_P(BackendConformance, CountsDirectedObservations) {
  const auto policy = make_reputation_policy(GetParam(), params_for(3, 1));
  policy->record_transaction({0, 1, 0, 1.0, 4.0});
  policy->record_transaction({0, 1, 0, 2.0, 4.5});
  policy->record_transaction({1, 0, 0, 3.0, 3.0});
  EXPECT_EQ(policy->observation_count(0, 1, 0), 2u);
  EXPECT_EQ(policy->observation_count(1, 0, 0), 1u);
  EXPECT_EQ(policy->observation_count(2, 0, 0), 0u);
  EXPECT_EQ(policy->transaction_count(), 3u);
}

TEST_P(BackendConformance, RejectsTimeTravel) {
  const auto policy = make_reputation_policy(GetParam(), params_for(3, 1));
  policy->record_transaction({0, 1, 0, 10.0, 4.0});
  EXPECT_THROW(policy->record_transaction({0, 1, 0, 5.0, 4.0}),
               PreconditionError);
}

TEST_P(BackendConformance, RejectsOutOfRangeIds) {
  // 4 entities, 2 contexts: entity 4 and context 2 are out of range.
  const auto policy = make_reputation_policy(GetParam(), params_for(4, 2));
  policy->record_transaction({0, 1, 0, 1.0, 4.0});
  const std::vector<EntityId> ok = {0, 2};
  const std::vector<EntityId> bad = {0, 4};
  std::vector<std::uint64_t> counts(2);
  std::vector<TrustLevel> levels(2);
  for (const auto& [x, y, c] :
       {std::tuple<EntityId, EntityId, ContextId>{4, 1, 0},
        {99, 1, 0},
        {0, 4, 0},
        {0, 1, 2}}) {
    SCOPED_TRACE(std::to_string(x) + " -> " + std::to_string(y) + " in " +
                 std::to_string(c));
    EXPECT_THROW((void)policy->evaluate(x, y, c, 2.0), PreconditionError);
    EXPECT_THROW((void)policy->offered_level(x, y, c, 2.0), PreconditionError);
    EXPECT_THROW((void)policy->observation_count(x, y, c), PreconditionError);
    EXPECT_THROW((void)policy->direct_component(x, y, c, 2.0),
                 PreconditionError);
    EXPECT_THROW((void)policy->reputation_component(x, y, c, 2.0),
                 PreconditionError);
    const std::vector<EntityId>& trusters = x == 0 ? ok : bad;
    EXPECT_THROW(policy->observation_counts(trusters, y, c, counts),
                 PreconditionError);
    EXPECT_THROW(policy->offered_levels(trusters, y, c, 2.0, levels),
                 PreconditionError);
  }
  EXPECT_THROW(policy->record_transaction({0, 4, 0, 3.0, 4.0}),
               PreconditionError);
  EXPECT_THROW(policy->record_transaction({0, 1, 2, 3.0, 4.0}),
               PreconditionError);
  EXPECT_THROW((void)policy->forget(4), PreconditionError);
  // Valid ids still answer.
  policy->observation_counts(ok, 1, 0, counts);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 0}));
  policy->offered_levels(ok, 1, 0, 2.0, levels);
}

TEST_P(BackendConformance, CountersAreNamedAndMonotone) {
  const auto policy = make_reputation_policy(GetParam(), params_for(3, 1));
  policy->record_transaction({0, 1, 0, 1.0, 4.0});
  (void)policy->evaluate(0, 1, 0, 2.0);
  const auto counters = policy->counters();
  ASSERT_FALSE(counters.empty());
  for (const auto& [name, value] : counters) {
    EXPECT_FALSE(name.empty());
  }
}

TEST(BackendConformancePerStream,
     ReputationComponentExcludesTheEvaluator) {
  // Pooled-evidence beta cannot attribute records to recommenders, so the
  // evaluator-exclusion clause binds the per-stream backends only.
  for (const char* name : {"gamma", "fuzzy", "purge:gamma"}) {
    const auto policy = make_reputation_policy(name, params_for(4, 1));
    // Entity 2 is the sole holder of evidence about entity 1.
    policy->record_transaction({2, 1, 0, 1.0, 5.0});
    EXPECT_TRUE(policy->reputation_component(0, 1, 0, 2.0).has_value())
        << name;
    EXPECT_FALSE(policy->reputation_component(2, 1, 0, 2.0).has_value())
        << name << ": the evaluator's own record is not third-party evidence";
  }
}

TEST(BackendConformancePerStream,
     ReputationComponentIgnoresTheEvaluatorsOwnRecordTime) {
  // Ω never reads the evaluator's own record, so a record of its newer
  // than the query time does not make Ω throw; every other record, and
  // the evaluator's own in Θ and Γ, is still checked against the time.
  for (const char* name : {"gamma", "fuzzy", "purge:gamma"}) {
    const auto policy = make_reputation_policy(name, params_for(4, 1));
    policy->record_transaction({2, 1, 0, 1.0, 5.0});
    policy->record_transaction({0, 1, 0, 9.0, 3.0});
    EXPECT_TRUE(policy->reputation_component(0, 1, 0, 5.0).has_value())
        << name;
    EXPECT_THROW((void)policy->reputation_component(3, 1, 0, 5.0),
                 PreconditionError)
        << name;
    EXPECT_THROW((void)policy->direct_component(0, 1, 0, 5.0),
                 PreconditionError)
        << name;
    EXPECT_THROW((void)policy->evaluate(0, 1, 0, 5.0), PreconditionError)
        << name;
  }
}

// --------------------------------------------------- gamma bit-identity

TEST(GammaPolicy, MatchesTheLegacyEngineExactly) {
  TrustEngineConfig config;
  config.learn_recommender_weights = true;
  TrustEngine legacy(config, 5, 2);
  GammaReputationPolicy policy(config, 5, 2);
  const auto stream = fixed_stream(5);
  for (const Transaction& tx : stream) {
    legacy.record_transaction(tx);
    policy.record_transaction(tx);
  }
  const double now = stream.back().time + 5.0;
  for (EntityId x = 0; x < 5; ++x) {
    for (EntityId y = 0; y < 5; ++y) {
      if (x == y) continue;
      EXPECT_EQ(legacy.eventual_trust(x, y, 0, now),
                policy.evaluate(x, y, 0, now));
      EXPECT_EQ(quantize_offered_level(legacy.eventual_trust(x, y, 0, now)),
                policy.offered_level(x, y, 0, now));
    }
  }
}

TEST(GammaPolicy, RecommendationFoldsAsTheRecommendersOwnRecord) {
  GammaReputationPolicy via_tx({}, 3, 1);
  GammaReputationPolicy via_rec({}, 3, 1);
  via_tx.record_transaction({0, 1, 0, 1.0, 4.5});
  via_rec.record_recommendation({0, 1, 0, 1.0, 4.5});
  EXPECT_EQ(via_tx.evaluate(2, 1, 0, 2.0), via_rec.evaluate(2, 1, 0, 2.0));
  EXPECT_EQ(via_tx.observation_count(0, 1, 0),
            via_rec.observation_count(0, 1, 0));
}

TEST(DomainTrustBridge, EngineRequiresTheGammaBackend) {
  DomainTrustBridge gamma_bridge(
      make_reputation_policy("gamma", params_for(4, 1)), 2, 2, 1);
  gamma_bridge.observe_client_side(0, 0, 0, 1.0, 5.0);
  EXPECT_EQ(gamma_bridge.engine().transaction_count(), 1u);
  DomainTrustBridge beta_bridge(make_reputation_policy("beta", params_for(4, 1)),
                                2, 2, 1);
  EXPECT_THROW((void)beta_bridge.engine(), PreconditionError);
}

// --------------------------------------------------------------- purging

TEST(PurgingPolicy, PurgesDeviantRecommendationsOnly) {
  PurgeConfig config;
  config.min_consensus = 2;
  config.deviation_threshold = 1.5;
  PurgingReputationPolicy policy(
      make_reputation_policy("gamma", params_for(5, 1)), config);
  // First-hand experience anchors the consensus around ~2.0.
  policy.record_transaction({0, 4, 0, 1.0, 2.0});
  policy.record_transaction({1, 4, 0, 2.0, 2.2});
  // An honest recommendation near the consensus passes...
  policy.record_recommendation({2, 4, 0, 3.0, 2.5});
  // ...a ballot-stuffed 6.0 does not.
  policy.record_recommendation({3, 4, 0, 4.0, 6.0});
  const auto counters = policy.counters();
  EXPECT_EQ(counters[0].first, "purged_recommendations");
  EXPECT_EQ(counters[0].second, 1u);
  EXPECT_EQ(counters[1].first, "accepted_recommendations");
  EXPECT_EQ(counters[1].second, 1u);
  // The purged recommender left no trace in the base policy.
  EXPECT_EQ(policy.observation_count(3, 4, 0), 0u);
  EXPECT_EQ(policy.observation_count(2, 4, 0), 1u);
}

TEST(PurgingPolicy, ColdFilterPassesEverything) {
  PurgeConfig config;
  config.min_consensus = 3;
  PurgingReputationPolicy policy(
      make_reputation_policy("gamma", params_for(4, 1)), config);
  policy.record_recommendation({0, 3, 0, 1.0, 6.0});
  policy.record_recommendation({1, 3, 0, 2.0, 1.0});
  const auto counters = policy.counters();
  EXPECT_EQ(counters[0].second, 0u);  // nothing purged
  EXPECT_EQ(counters[1].second, 2u);  // both accepted
}

TEST(PurgingPolicy, ForgetClearsTheConsensusToo) {
  PurgeConfig config;
  config.min_consensus = 1;
  config.deviation_threshold = 0.5;
  PurgingReputationPolicy policy(
      make_reputation_policy("gamma", params_for(4, 1)), config);
  policy.record_transaction({0, 2, 0, 1.0, 2.0});
  // Entity 2 re-registers: its consensus history must not follow it.
  EXPECT_GT(policy.forget(2), 0u);
  // With the consensus gone, a glowing report about the "newcomer" passes.
  policy.record_recommendation({1, 2, 0, 2.0, 6.0});
  EXPECT_EQ(policy.counters()[0].second, 0u);
}

TEST(PurgingPolicy, ExposesTheBaseAllianceGraph) {
  const auto params = params_for(4, 1);
  PurgingReputationPolicy over_gamma(make_reputation_policy("gamma", params),
                                     PurgeConfig{});
  EXPECT_NE(over_gamma.alliance_graph(), nullptr);
  PurgingReputationPolicy over_beta(make_reputation_policy("beta", params),
                                    PurgeConfig{});
  EXPECT_EQ(over_beta.alliance_graph(), nullptr);
}

// ----------------------------------------------------------------- fuzzy

TEST(FuzzyPolicy, EvaluatesMonotonicallyInObservedConduct) {
  const auto params = params_for(3, 1);
  double previous = 0.0;
  for (const double score : {1.0, 2.0, 3.5, 5.0, 6.0}) {
    const auto policy = make_reputation_policy("fuzzy", params);
    policy->record_transaction({0, 1, 0, 1.0, score});
    const double value = policy->evaluate(0, 1, 0, 2.0);
    EXPECT_GE(value, 1.0);
    EXPECT_LE(value, 6.0);
    EXPECT_GT(value, previous) << "score " << score;
    previous = value;
  }
}

TEST(FuzzyPolicy, DirectExperienceDominatesOnConflict) {
  const auto params = params_for(4, 1);
  const auto policy = make_reputation_policy("fuzzy", params);
  // Evaluator 0 saw excellent conduct; third parties badmouth at 1.0.
  policy->record_transaction({0, 1, 0, 1.0, 6.0});
  policy->record_transaction({2, 1, 0, 2.0, 1.0});
  policy->record_transaction({3, 1, 0, 3.0, 1.0});
  // The high-direct/low-indirect rule lands on the medium set, not low.
  EXPECT_GE(policy->evaluate(0, 1, 0, 4.0), 3.0);
}

// ----------------------------------------- scenario + campaign integration

TEST(ScenarioReputation, BuilderValidatesTheBackendName) {
  sim::ScenarioBuilder builder;
  builder.tasks(10).heuristic("mct");
  EXPECT_EQ(builder.with_reputation_backend("purge:fuzzy")
                .build()
                .reputation.name,
            "purge:fuzzy");
  EXPECT_THROW((void)builder.with_reputation_backend("nope").build(),
               PreconditionError);
}

TEST(ScenarioReputation, CampaignCarriesBackendCounters) {
  chaos::AdversarySpec cd;
  cd.side = chaos::AdversarySide::kClientDomain;
  cd.domain = 0;
  cd.kind = chaos::BehaviorKind::kCollusive;
  const sim::Scenario scenario = sim::ScenarioBuilder()
                                     .tasks(10)
                                     .machines(3)
                                     .resource_domains(3, 3)
                                     .client_domains(2, 2)
                                     .heuristic("mct")
                                     .with_adversaries({cd})
                                     .with_reputation_backend("purge:gamma")
                                     .build();
  sim::RoundConfig config;
  config.rounds = 6;
  config.tasks_per_round = 10;
  const sim::CampaignResult result = sim::run_campaign(scenario, config, 42);
  EXPECT_EQ(result.reputation_backend, "purge:gamma");
  const obs::RunReport report = result.report();
  EXPECT_TRUE(report.has("trust.purge:gamma.purged_recommendations"));
  EXPECT_TRUE(report.has("trust.purge:gamma.accepted_recommendations"));
  EXPECT_TRUE(report.has("trust.purge:gamma.gamma_evals"));
  // The lone badmouther's 1.0 reports deviate from the honest consensus.
  EXPECT_GT(report.get("trust.purge:gamma.purged_recommendations"), 0.0);
}

TEST(ScenarioReputation, DefaultBackendIsBitIdenticalToLegacyCampaign) {
  const sim::Scenario scenario =
      sim::ScenarioBuilder().tasks(10).heuristic("mct").build();
  ASSERT_EQ(scenario.reputation.name, "gamma");
  sim::RoundConfig config;
  config.rounds = 4;
  config.tasks_per_round = 8;
  const auto a = sim::run_campaign(scenario, config, 7).report();
  sim::Scenario explicit_gamma = scenario;
  explicit_gamma.reputation.name = "gamma";
  const auto b = sim::run_campaign(explicit_gamma, config, 7).report();
  EXPECT_EQ(testing_support::report_text(a), testing_support::report_text(b));
}

TEST(BackendSweep, LabRunsTheReputationBackendAxis) {
  const lab::SweepSpec* spec = lab::find_spec("backend_tournament");
  ASSERT_NE(spec, nullptr);
  ASSERT_FALSE(spec->axes.empty());
  EXPECT_EQ(spec->axes[0].name, "backend");
  std::vector<std::string> backends;
  for (const auto& value : spec->axes[0].values) {
    backends.push_back(value.text());
  }
  EXPECT_EQ(backends, all_backends());
  EXPECT_NE(lab::find_spec("smoke_backends"), nullptr);
}

}  // namespace
}  // namespace gridtrust::trust
