// Tests for the trust core: levels, ETS (Table 1), the trust-level table,
// decay functions, alliances, the §2.2 trust engine, and the Fig. 1 agents.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trust/agents.hpp"
#include "trust/alliance.hpp"
#include "trust/decay.hpp"
#include "trust/ets.hpp"
#include "trust/gamma_policy.hpp"
#include "trust/trust_engine.hpp"
#include "trust/trust_level.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::trust {
namespace {

// ---------------------------------------------------------------- levels

TEST(TrustLevel, NumericMappingMatchesPaper) {
  EXPECT_EQ(to_numeric(TrustLevel::kA), 1);
  EXPECT_EQ(to_numeric(TrustLevel::kB), 2);
  EXPECT_EQ(to_numeric(TrustLevel::kC), 3);
  EXPECT_EQ(to_numeric(TrustLevel::kD), 4);
  EXPECT_EQ(to_numeric(TrustLevel::kE), 5);
  EXPECT_EQ(to_numeric(TrustLevel::kF), 6);
}

TEST(TrustLevel, RoundTripNumeric) {
  for (int v = 1; v <= 6; ++v) {
    EXPECT_EQ(to_numeric(level_from_numeric(v)), v);
  }
  EXPECT_THROW(level_from_numeric(0), PreconditionError);
  EXPECT_THROW(level_from_numeric(7), PreconditionError);
}

TEST(TrustLevel, StringConversions) {
  EXPECT_EQ(to_string(TrustLevel::kA), "A");
  EXPECT_EQ(to_string(TrustLevel::kF), "F");
  EXPECT_EQ(level_from_string("C"), TrustLevel::kC);
  EXPECT_EQ(level_from_string("c"), TrustLevel::kC);
  EXPECT_THROW(level_from_string("G"), PreconditionError);
  EXPECT_THROW(level_from_string("AB"), PreconditionError);
  EXPECT_THROW(level_from_string(""), PreconditionError);
}

TEST(TrustLevel, QuantizeClampsAndRounds) {
  EXPECT_EQ(quantize_level(1.0), TrustLevel::kA);
  EXPECT_EQ(quantize_level(2.4), TrustLevel::kB);
  EXPECT_EQ(quantize_level(2.6), TrustLevel::kC);
  EXPECT_EQ(quantize_level(6.0), TrustLevel::kF);
  EXPECT_EQ(quantize_level(0.0), TrustLevel::kA);   // clamp low
  EXPECT_EQ(quantize_level(99.0), TrustLevel::kF);  // clamp high
}

TEST(TrustLevel, MinMaxHelpers) {
  EXPECT_EQ(min_level(TrustLevel::kC, TrustLevel::kE), TrustLevel::kC);
  EXPECT_EQ(max_level(TrustLevel::kC, TrustLevel::kE), TrustLevel::kE);
  EXPECT_EQ(min_level(TrustLevel::kB, TrustLevel::kB), TrustLevel::kB);
}

// ---------------------------------------------------------------- ETS

TEST(Ets, ZeroWhenOfferMeetsRequirement) {
  for (int r = 1; r <= 5; ++r) {
    for (int o = r; o <= 5; ++o) {
      EXPECT_EQ(trust_cost(level_from_numeric(r), level_from_numeric(o)), 0);
    }
  }
}

TEST(Ets, DifferenceWhenOfferFallsShort) {
  EXPECT_EQ(trust_cost(TrustLevel::kB, TrustLevel::kA), 1);
  EXPECT_EQ(trust_cost(TrustLevel::kC, TrustLevel::kA), 2);
  EXPECT_EQ(trust_cost(TrustLevel::kD, TrustLevel::kB), 2);
  EXPECT_EQ(trust_cost(TrustLevel::kE, TrustLevel::kA), 4);
  EXPECT_EQ(trust_cost(TrustLevel::kE, TrustLevel::kD), 1);
}

TEST(Ets, RowFAlwaysMaximal) {
  // Table 1: requesting F forces the full supplement whatever is offered.
  for (int o = 1; o <= 5; ++o) {
    EXPECT_EQ(trust_cost(TrustLevel::kF, level_from_numeric(o)),
              kMaxTrustCost);
  }
}

TEST(Ets, RejectsOfferedF) {
  EXPECT_THROW(trust_cost(TrustLevel::kA, TrustLevel::kF), PreconditionError);
}

TEST(Ets, SymbolsMatchPaperNotation) {
  EXPECT_EQ(ets_symbol(TrustLevel::kA, TrustLevel::kA), "0");
  EXPECT_EQ(ets_symbol(TrustLevel::kC, TrustLevel::kA), "C - A");
  EXPECT_EQ(ets_symbol(TrustLevel::kE, TrustLevel::kD), "E - D");
  EXPECT_EQ(ets_symbol(TrustLevel::kF, TrustLevel::kC), "F");
}

TEST(Ets, AverageTrustCostOverTableCells) {
  // The paper quotes "the average TC value is 3" (the midpoint of the 0..6
  // range); the exact mean over the Table 1 cells is 50/30.  Assert the
  // computed value so the discrepancy stays documented.
  EXPECT_NEAR(average_trust_cost(), 50.0 / 30.0, 1e-12);
}

TEST(Ets, TablesHaveSixRowsAndSixColumns) {
  const TextTable sym = ets_symbol_table();
  const TextTable num = ets_numeric_table();
  EXPECT_EQ(sym.row_count(), 6u);
  EXPECT_EQ(num.row_count(), 6u);
  EXPECT_NE(sym.to_string().find("C - B"), std::string::npos);
  EXPECT_NE(num.to_string().find("6"), std::string::npos);
}

// ---------------------------------------------------------------- table

TEST(TrustTable, StartsAtLowestLevel) {
  TrustLevelTable table(2, 3, 4);
  for (std::size_t cd = 0; cd < 2; ++cd) {
    for (std::size_t rd = 0; rd < 3; ++rd) {
      for (std::size_t act = 0; act < 4; ++act) {
        EXPECT_EQ(table.get(cd, rd, act), TrustLevel::kA);
      }
    }
  }
}

TEST(TrustTable, SetAndGet) {
  TrustLevelTable table(2, 2, 2);
  table.set(1, 0, 1, TrustLevel::kD);
  EXPECT_EQ(table.get(1, 0, 1), TrustLevel::kD);
  EXPECT_EQ(table.get(0, 1, 1), TrustLevel::kA);
}

TEST(TrustTable, RejectsOfferedF) {
  TrustLevelTable table(1, 1, 1);
  EXPECT_THROW(table.set(0, 0, 0, TrustLevel::kF), PreconditionError);
}

TEST(TrustTable, BoundsChecked) {
  TrustLevelTable table(2, 2, 2);
  EXPECT_THROW(table.get(2, 0, 0), PreconditionError);
  EXPECT_THROW(table.get(0, 2, 0), PreconditionError);
  EXPECT_THROW(table.get(0, 0, 2), PreconditionError);
  EXPECT_THROW(TrustLevelTable(0, 1, 1), PreconditionError);
}

TEST(TrustTable, VersionBumpsOnlyOnChange) {
  TrustLevelTable table(1, 1, 1);
  const auto v0 = table.version();
  table.set(0, 0, 0, TrustLevel::kC);
  const auto v1 = table.version();
  EXPECT_GT(v1, v0);
  table.set(0, 0, 0, TrustLevel::kC);  // no change
  EXPECT_EQ(table.version(), v1);
}

TEST(TrustTable, OfferedTrustLevelIsMinOverActivities) {
  TrustLevelTable table(1, 1, 3);
  table.set(0, 0, 0, TrustLevel::kE);
  table.set(0, 0, 1, TrustLevel::kB);
  table.set(0, 0, 2, TrustLevel::kD);
  const std::size_t all[] = {0, 1, 2};
  EXPECT_EQ(table.offered_trust_level(0, 0, all), TrustLevel::kB);
  const std::size_t some[] = {0, 2};
  EXPECT_EQ(table.offered_trust_level(0, 0, some), TrustLevel::kD);
  const std::size_t one[] = {0};
  EXPECT_EQ(table.offered_trust_level(0, 0, one), TrustLevel::kE);
}

TEST(TrustTable, OfferedTrustLevelRequiresActivities) {
  TrustLevelTable table(1, 1, 1);
  EXPECT_THROW(table.offered_trust_level(0, 0, {}), PreconditionError);
}

TEST(TrustTable, RandomizeStaysInOfferedRange) {
  TrustLevelTable table(3, 3, 5);
  Rng rng(3);
  table.randomize(rng);
  bool saw_not_a = false;
  for (std::size_t cd = 0; cd < 3; ++cd) {
    for (std::size_t rd = 0; rd < 3; ++rd) {
      for (std::size_t act = 0; act < 5; ++act) {
        const int v = to_numeric(table.get(cd, rd, act));
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 5);
        if (v != 1) saw_not_a = true;
      }
    }
  }
  EXPECT_TRUE(saw_not_a);
}

// ---------------------------------------------------------------- decay

TEST(Decay, NoDecayIsAlwaysOne) {
  NoDecay d;
  EXPECT_EQ(d.value(0.0), 1.0);
  EXPECT_EQ(d.value(1e9), 1.0);
  EXPECT_THROW(d.value(-1.0), PreconditionError);
}

TEST(Decay, ExponentialHalfLife) {
  ExponentialDecay d(100.0);
  EXPECT_NEAR(d.value(0.0), 1.0, 1e-12);
  EXPECT_NEAR(d.value(100.0), 0.5, 1e-12);
  EXPECT_NEAR(d.value(200.0), 0.25, 1e-12);
  EXPECT_THROW(ExponentialDecay(0.0), PreconditionError);
}

TEST(Decay, LinearHitsZeroAtLifetime) {
  LinearDecay d(50.0);
  EXPECT_NEAR(d.value(0.0), 1.0, 1e-12);
  EXPECT_NEAR(d.value(25.0), 0.5, 1e-12);
  EXPECT_EQ(d.value(50.0), 0.0);
  EXPECT_EQ(d.value(500.0), 0.0);
}

TEST(Decay, StepKeepsResidualWeight) {
  StepDecay d(10.0, 0.3);
  EXPECT_EQ(d.value(0.0), 1.0);
  EXPECT_EQ(d.value(10.0), 1.0);
  EXPECT_EQ(d.value(10.1), 0.3);
  EXPECT_THROW(StepDecay(1.0, 1.5), PreconditionError);
}

TEST(Decay, AllAreMonotoneNonIncreasing) {
  const auto decays = {make_no_decay(), make_exponential_decay(10.0),
                       make_linear_decay(10.0), make_step_decay(5.0, 0.2)};
  for (const auto& d : decays) {
    double prev = d->value(0.0);
    EXPECT_NEAR(prev, 1.0, 1e-12);
    for (double age = 0.5; age < 30.0; age += 0.5) {
      const double v = d->value(age);
      EXPECT_LE(v, prev + 1e-12);
      EXPECT_GE(v, 0.0);
      prev = v;
    }
  }
}

// ---------------------------------------------------------------- alliances

TEST(Alliance, SingletonsInitially) {
  AllianceGraph g(4);
  EXPECT_EQ(g.group_count(), 4u);
  EXPECT_TRUE(g.allied(2, 2));
  EXPECT_FALSE(g.allied(0, 1));
}

TEST(Alliance, AllyMergesTransitively) {
  AllianceGraph g(5);
  g.ally(0, 1);
  g.ally(1, 2);
  EXPECT_TRUE(g.allied(0, 2));
  EXPECT_FALSE(g.allied(0, 3));
  EXPECT_EQ(g.group_count(), 3u);
  EXPECT_EQ(g.group_size(0), 3u);
  EXPECT_EQ(g.group_size(3), 1u);
}

TEST(Alliance, AllyIsIdempotent) {
  AllianceGraph g(3);
  g.ally(0, 1);
  g.ally(0, 1);
  g.ally(1, 0);
  EXPECT_EQ(g.group_count(), 2u);
}

TEST(Alliance, BoundsChecked) {
  AllianceGraph g(2);
  EXPECT_THROW(g.ally(0, 2), PreconditionError);
  EXPECT_THROW(g.allied(2, 0), PreconditionError);
}

// ---------------------------------------------------------------- engine

TrustEngineConfig engine_config() {
  TrustEngineConfig cfg;
  cfg.alpha = 0.6;
  cfg.beta = 0.4;
  cfg.learning_rate = 0.5;
  return cfg;
}

TEST(TrustEngine, ValidatesConfig) {
  TrustEngineConfig bad = engine_config();
  bad.alpha = -1;
  EXPECT_THROW(TrustEngine(bad, 2, 1), PreconditionError);
  bad = engine_config();
  bad.alpha = 0;
  bad.beta = 0;
  EXPECT_THROW(TrustEngine(bad, 2, 1), PreconditionError);
  bad = engine_config();
  bad.learning_rate = 0;
  EXPECT_THROW(TrustEngine(bad, 2, 1), PreconditionError);
  EXPECT_THROW(TrustEngine(engine_config(), 0, 1), PreconditionError);
  EXPECT_THROW(TrustEngine(engine_config(), 2, 0), PreconditionError);
}

TEST(TrustEngine, StrangerGetsDefaultScore) {
  TrustEngine engine(engine_config(), 3, 1);
  EXPECT_EQ(engine.eventual_trust(0, 1, 0, 0.0), 1.0);
  EXPECT_EQ(engine.eventual_offered_level(0, 1, 0, 0.0), TrustLevel::kA);
}

TEST(TrustEngine, FirstTransactionSetsDirectTrust) {
  TrustEngine engine(engine_config(), 3, 1);
  engine.record_transaction({0, 1, 0, 10.0, 5.0});
  const auto rec = engine.direct_record(0, 1, 0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level, 5.0);
  EXPECT_EQ(rec->count, 1u);
  EXPECT_EQ(engine.direct_trust(0, 1, 0, 10.0), 5.0);
}

TEST(TrustEngine, EwmaBlendsObservations) {
  TrustEngine engine(engine_config(), 2, 1);  // lr = 0.5, no decay
  engine.record_transaction({0, 1, 0, 0.0, 6.0});
  engine.record_transaction({0, 1, 0, 1.0, 2.0});
  // 0.5*6 + 0.5*2 = 4
  EXPECT_NEAR(*engine.direct_trust(0, 1, 0, 1.0), 4.0, 1e-12);
}

TEST(TrustEngine, DirectTrustDecaysWithAge) {
  TrustEngineConfig cfg = engine_config();
  cfg.decay = make_exponential_decay(10.0);
  TrustEngine engine(cfg, 2, 1);
  engine.record_transaction({0, 1, 0, 0.0, 4.0});
  EXPECT_NEAR(*engine.direct_trust(0, 1, 0, 0.0), 4.0, 1e-12);
  EXPECT_NEAR(*engine.direct_trust(0, 1, 0, 10.0), 2.0, 1e-12);
  EXPECT_THROW(engine.direct_trust(0, 1, 0, -1.0), PreconditionError);
}

TEST(TrustEngine, PerContextDecayOverrides) {
  TrustEngineConfig cfg = engine_config();
  cfg.decay = make_no_decay();
  cfg.context_decay[1] = make_exponential_decay(10.0);
  TrustEngine engine(cfg, 2, 2);
  engine.record_transaction({0, 1, 0, 0.0, 4.0});
  engine.record_transaction({0, 1, 1, 0.0, 4.0});
  // Context 0 keeps full weight forever; context 1 halves every 10 s.
  EXPECT_NEAR(*engine.direct_trust(0, 1, 0, 100.0), 4.0, 1e-12);
  EXPECT_NEAR(*engine.direct_trust(0, 1, 1, 10.0), 2.0, 1e-12);
}

TEST(TrustEngine, ContextDecayOverrideValidation) {
  TrustEngineConfig cfg = engine_config();
  cfg.context_decay[5] = make_no_decay();  // unknown context
  EXPECT_THROW(TrustEngine(cfg, 2, 2), PreconditionError);
  cfg = engine_config();
  cfg.context_decay[0] = nullptr;
  EXPECT_THROW(TrustEngine(cfg, 2, 2), PreconditionError);
}

TEST(TrustEngine, ReputationAveragesThirdParties) {
  TrustEngine engine(engine_config(), 4, 1);
  // Entities 1 and 2 both dealt with target 3; evaluator 0 has not.
  engine.record_transaction({1, 3, 0, 0.0, 6.0});
  engine.record_transaction({2, 3, 0, 0.0, 2.0});
  const auto rep = engine.reputation(0, 3, 0, 0.0);
  ASSERT_TRUE(rep.has_value());
  EXPECT_NEAR(*rep, 4.0, 1e-12);
}

TEST(TrustEngine, ReputationExcludesEvaluatorAndTarget) {
  TrustEngine engine(engine_config(), 4, 1);
  engine.record_transaction({0, 3, 0, 0.0, 6.0});  // evaluator's own view
  EXPECT_FALSE(engine.reputation(0, 3, 0, 0.0).has_value());
}

TEST(TrustEngine, EventualTrustBlendsAlphaBeta) {
  TrustEngine engine(engine_config(), 4, 1);
  engine.record_transaction({0, 3, 0, 0.0, 6.0});  // Θ = 6
  engine.record_transaction({1, 3, 0, 0.0, 1.0});  // Ω = 1
  EXPECT_NEAR(engine.eventual_trust(0, 3, 0, 0.0), 0.6 * 6 + 0.4 * 1, 1e-12);
}

TEST(TrustEngine, WeightsAreNormalized) {
  TrustEngineConfig cfg = engine_config();
  cfg.alpha = 3.0;  // same ratio as 0.6/0.4
  cfg.beta = 2.0;
  TrustEngine engine(cfg, 4, 1);
  engine.record_transaction({0, 3, 0, 0.0, 6.0});
  engine.record_transaction({1, 3, 0, 0.0, 1.0});
  EXPECT_NEAR(engine.eventual_trust(0, 3, 0, 0.0), 0.6 * 6 + 0.4 * 1, 1e-12);
}

TEST(TrustEngine, MissingComponentTakesFullWeight) {
  TrustEngine engine(engine_config(), 4, 1);
  engine.record_transaction({0, 3, 0, 0.0, 5.0});
  EXPECT_NEAR(engine.eventual_trust(0, 3, 0, 0.0), 5.0, 1e-12);  // Θ only
  engine.record_transaction({1, 2, 0, 0.0, 3.0});
  EXPECT_NEAR(engine.eventual_trust(0, 2, 0, 0.0), 3.0, 1e-12);  // Ω only
}

TEST(TrustEngine, OfferedLevelIsCappedAtE) {
  TrustEngine engine(engine_config(), 2, 1);
  engine.record_transaction({0, 1, 0, 0.0, 6.0});
  EXPECT_EQ(engine.eventual_offered_level(0, 1, 0, 0.0), TrustLevel::kE);
}

TEST(TrustEngine, AlliedRecommenderIsDiscounted) {
  TrustEngineConfig cfg = engine_config();
  cfg.alliance_discount = 0.25;
  TrustEngine engine(cfg, 4, 1);
  engine.alliances().ally(1, 3);  // recommender 1 allied with target 3
  engine.record_transaction({1, 3, 0, 0.0, 6.0});
  const auto rep = engine.reputation(0, 3, 0, 0.0);
  ASSERT_TRUE(rep.has_value());
  EXPECT_NEAR(*rep, 6.0 * 0.25, 1e-12);
  EXPECT_NEAR(engine.recommender_factor(0, 1, 3), 0.25, 1e-12);
  EXPECT_NEAR(engine.recommender_factor(0, 2, 3), 1.0, 1e-12);
}

TEST(TrustEngine, CollusionDiscountLimitsReputationInflation) {
  // Three colluders praise target 3 at 6.0; one honest entity reports 2.0.
  TrustEngineConfig cfg = engine_config();
  cfg.alliance_discount = 0.0;
  TrustEngine engine(cfg, 6, 1);
  for (EntityId z : {1u, 2u, 4u}) {
    engine.alliances().ally(z, 3);
    engine.record_transaction({z, 3, 0, 0.0, 6.0});
  }
  engine.record_transaction({5, 3, 0, 0.0, 2.0});
  const auto rep = engine.reputation(0, 3, 0, 0.0);
  ASSERT_TRUE(rep.has_value());
  // Colluders contribute 0; honest 2.0; average over 4 recommenders.
  EXPECT_NEAR(*rep, 2.0 / 4.0, 1e-12);
}

TEST(TrustEngine, LearnedRecommenderWeightsPunishLiars) {
  TrustEngineConfig cfg = engine_config();
  cfg.learn_recommender_weights = true;
  cfg.recommender_learning_rate = 0.5;
  TrustEngine engine(cfg, 4, 1);
  // Entity 1 claims target 2 is excellent; entity 3 claims it is poor.
  engine.record_transaction({1, 2, 0, 0.0, 6.0});
  engine.record_transaction({3, 2, 0, 0.0, 1.5});
  // Evaluator 0 experiences target 2 first-hand as poor, repeatedly.
  for (int i = 1; i <= 6; ++i) {
    engine.record_transaction({0, 2, 0, static_cast<double>(i), 1.0});
  }
  // The optimist's weight must now be well below the realist's.
  EXPECT_LT(engine.recommender_factor(0, 1, 2),
            engine.recommender_factor(0, 3, 2));
}

TEST(TrustEngine, RejectsBadTransactions) {
  TrustEngine engine(engine_config(), 3, 2);
  EXPECT_THROW(engine.record_transaction({0, 0, 0, 0.0, 3.0}),
               PreconditionError);  // self trust
  EXPECT_THROW(engine.record_transaction({0, 1, 5, 0.0, 3.0}),
               PreconditionError);  // unknown context
  EXPECT_THROW(engine.record_transaction({0, 9, 0, 0.0, 3.0}),
               PreconditionError);  // unknown entity
  EXPECT_THROW(engine.record_transaction({0, 1, 0, 0.0, 9.0}),
               PreconditionError);  // score off scale
  engine.record_transaction({0, 1, 0, 5.0, 3.0});
  EXPECT_THROW(engine.record_transaction({0, 1, 0, 4.0, 3.0}),
               PreconditionError);  // time went backwards
}

TEST(TrustEngine, ContextsAreIsolated) {
  TrustEngine engine(engine_config(), 3, 2);
  engine.record_transaction({0, 1, 0, 0.0, 6.0});
  EXPECT_FALSE(engine.direct_trust(0, 1, 1, 0.0).has_value());
  EXPECT_TRUE(engine.direct_trust(0, 1, 0, 0.0).has_value());
}

TEST(TrustEngine, TransactionCountAccumulates) {
  TrustEngine engine(engine_config(), 3, 1);
  EXPECT_EQ(engine.transaction_count(), 0u);
  engine.record_transaction({0, 1, 0, 0.0, 3.0});
  engine.record_transaction({1, 2, 0, 0.0, 3.0});
  EXPECT_EQ(engine.transaction_count(), 2u);
}

TEST(TrustEngine, PruneDropsStaleRecordsOnly) {
  TrustEngine engine(engine_config(), 4, 1);
  engine.record_transaction({0, 1, 0, 10.0, 4.0});
  engine.record_transaction({0, 2, 0, 100.0, 4.0});
  engine.record_transaction({1, 2, 0, 200.0, 4.0});
  EXPECT_EQ(engine.prune(50.0), 1u);  // only the t=10 record
  EXPECT_FALSE(engine.direct_record(0, 1, 0).has_value());
  EXPECT_TRUE(engine.direct_record(0, 2, 0).has_value());
  EXPECT_EQ(engine.prune(50.0), 0u);  // idempotent
  EXPECT_EQ(engine.prune(1000.0), 2u);
  EXPECT_EQ(engine.export_records().size(), 0u);
  // History counter is preserved.
  EXPECT_EQ(engine.transaction_count(), 3u);
}

// ---------------------------------------------------------------- agents

/// Agents for `n_cd` CDs and `n_rd` RDs over the paper's Γ engine.
DomainTrustBridge gamma_bridge(std::size_t n_cd, std::size_t n_rd,
                               std::size_t activities,
                               std::uint64_t min_transactions = 3) {
  return DomainTrustBridge(std::make_unique<GammaReputationPolicy>(
                               TrustEngineConfig{}, n_cd + n_rd, activities),
                           n_cd, n_rd, activities, min_transactions);
}

TEST(DomainTrustBridge, EntityMappingIsDisjoint) {
  DomainTrustBridge bridge = gamma_bridge(3, 2, 4);
  EXPECT_EQ(bridge.cd_entity(0), 0u);
  EXPECT_EQ(bridge.cd_entity(2), 2u);
  EXPECT_EQ(bridge.rd_entity(0), 3u);
  EXPECT_EQ(bridge.rd_entity(1), 4u);
  EXPECT_THROW(bridge.cd_entity(3), PreconditionError);
  EXPECT_THROW(bridge.rd_entity(2), PreconditionError);
}

TEST(DomainTrustBridge, RefreshRequiresSignificantData) {
  DomainTrustBridge bridge = gamma_bridge(1, 1, 1, /*min_transactions=*/3);
  TrustLevelTable table(1, 1, 1);
  bridge.observe_client_side(0, 0, 0, 1.0, 5.0);
  bridge.observe_resource_side(0, 0, 0, 2.0, 5.0);
  EXPECT_EQ(bridge.refresh(table, 3.0), 0u);  // only two observations
  bridge.observe_client_side(0, 0, 0, 3.0, 5.0);
  EXPECT_EQ(bridge.refresh(table, 4.0), 1u);
  EXPECT_GT(to_numeric(table.get(0, 0, 0)), 1);
}

TEST(DomainTrustBridge, SymmetricQuantifierTakesTheMin) {
  DomainTrustBridge bridge = gamma_bridge(1, 1, 1, 1);
  TrustLevelTable table(1, 1, 1);
  // Client thinks the resource is excellent; resource thinks the client is
  // poor -> the stored symmetric level must reflect the poor direction.
  bridge.observe_client_side(0, 0, 0, 1.0, 6.0);
  bridge.observe_resource_side(0, 0, 0, 1.0, 2.0);
  bridge.refresh(table, 2.0);
  EXPECT_EQ(table.get(0, 0, 0), TrustLevel::kB);
}

TEST(DomainTrustBridge, RefreshIsIdempotentWithoutNewData) {
  DomainTrustBridge bridge = gamma_bridge(2, 2, 2, 1);
  TrustLevelTable table(2, 2, 2);
  bridge.observe_client_side(0, 1, 0, 1.0, 4.0);
  bridge.observe_resource_side(1, 0, 0, 1.0, 4.0);
  EXPECT_GT(bridge.refresh(table, 2.0), 0u);
  EXPECT_EQ(bridge.refresh(table, 2.0), 0u);
}

TEST(DomainTrustBridge, RefreshValidatesTableShape) {
  DomainTrustBridge bridge = gamma_bridge(2, 2, 2);
  TrustLevelTable wrong(1, 2, 2);
  EXPECT_THROW(bridge.refresh(wrong, 0.0), PreconditionError);
}

TEST(DomainTrustBridge, PerActivityConductIsLearnedPerToa) {
  // One resource domain is excellent at activity 0 but hostile at activity
  // 1; the per-ToA trust table must learn the difference.
  DomainTrustBridge bridge = gamma_bridge(2, 1, 2);
  TrustLevelTable table(2, 1, 2);
  Rng rng(6);
  double t = 0.0;
  for (int i = 0; i < 12; ++i) {
    for (std::size_t cd = 0; cd < 2; ++cd) {
      t += 1.0;
      bridge.observe_client_side(cd, 0, 0, t, 5.5 + rng.normal(0.0, 0.2));
      bridge.observe_client_side(cd, 0, 1, t, 1.4 + rng.normal(0.0, 0.2));
      bridge.observe_resource_side(0, cd, 0, t, 5.0);
      bridge.observe_resource_side(0, cd, 1, t, 5.0);
    }
  }
  EXPECT_GT(bridge.refresh(table, t), 0u);
  for (std::size_t cd = 0; cd < 2; ++cd) {
    EXPECT_GT(to_numeric(table.get(cd, 0, 0)), to_numeric(table.get(cd, 0, 1)));
    EXPECT_LE(to_numeric(table.get(cd, 0, 1)), 2);
  }
}

}  // namespace
}  // namespace gridtrust::trust
