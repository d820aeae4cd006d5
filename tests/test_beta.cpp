// Tests for the Beta reputation comparison backend.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trust/beta_policy.hpp"
#include "trust/trust_engine.hpp"

namespace gridtrust::trust {
namespace {

TEST(BetaReputation, StrangerGetsNeutralPrior) {
  BetaReputationPolicy beta({}, 4, 1);
  EXPECT_NEAR(beta.evaluate(0, 1, 0, 0.0), 3.5, 1e-12);
  EXPECT_FALSE(beta.reputation_component(0, 1, 0, 0.0).has_value());
}

TEST(BetaReputation, EvidenceMapsScoresLinearly) {
  BetaReputationPolicy beta({}, 4, 1);
  beta.record_transaction({0, 1, 0, 0.0, 6.0});  // fully positive
  // Evidence (1, 0): expectation (1 + 1) / (1 + 0 + 2) on the 1..6 scale.
  auto pooled = beta.reputation_component(3, 1, 0, 0.0);
  ASSERT_TRUE(pooled.has_value());
  EXPECT_NEAR(*pooled, 1.0 + 5.0 * 2.0 / 3.0, 1e-12);
  beta.record_transaction({2, 1, 0, 1.0, 1.0});  // fully negative
  // Evidence (1, 1): balanced evidence -> the midpoint.
  pooled = beta.reputation_component(3, 1, 0, 1.0);
  ASSERT_TRUE(pooled.has_value());
  EXPECT_NEAR(*pooled, 3.5, 1e-12);
  EXPECT_NEAR(beta.evaluate(3, 1, 0, 1.0), 3.5, 1e-12);
}

TEST(BetaReputation, ConvergesToConductWithEvidence) {
  BetaReputationPolicy beta({}, 6, 1);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto z = static_cast<EntityId>(1 + rng.index(5));
    beta.record_transaction(
        {z, 0, 0, static_cast<double>(i), 5.0});  // consistent conduct 5.0
  }
  EXPECT_NEAR(beta.evaluate(1, 0, 0, 500.0), 5.0, 0.1);
  EXPECT_EQ(beta.offered_level(1, 0, 0, 500.0), TrustLevel::kE);
}

TEST(BetaReputation, ForgettingDiscountsOldEvidence) {
  BetaReputationConfig cfg;
  cfg.evidence_half_life = 10.0;
  BetaReputationPolicy beta(cfg, 3, 1);
  // Strongly positive history...
  for (int i = 0; i < 20; ++i) {
    beta.record_transaction({1, 0, 0, static_cast<double>(i), 6.0});
  }
  const double fresh = beta.evaluate(2, 0, 0, 20.0);
  // ...mostly forgotten after ten half-lives.
  const double stale = beta.evaluate(2, 0, 0, 120.0);
  EXPECT_GT(fresh, 5.5);
  EXPECT_LT(stale, fresh);
  // Forgetting drifts toward the neutral prior, never below it for a
  // purely positive history.
  EXPECT_GE(stale, 3.5 - 1e-9);
}

TEST(BetaReputation, ContextsAreIsolated) {
  BetaReputationPolicy beta({}, 3, 2);
  beta.record_transaction({0, 1, 0, 0.0, 6.0});
  EXPECT_GT(beta.evaluate(2, 1, 0, 0.0), 4.0);
  EXPECT_NEAR(beta.evaluate(2, 1, 1, 0.0), 3.5, 1e-12);
}

TEST(BetaReputation, Validation) {
  BetaReputationPolicy beta({}, 3, 1);
  EXPECT_THROW(beta.record_transaction({0, 0, 0, 0.0, 3.0}),
               PreconditionError);
  EXPECT_THROW(beta.record_transaction({0, 5, 0, 0.0, 3.0}),
               PreconditionError);
  EXPECT_THROW(beta.record_transaction({0, 1, 4, 0.0, 3.0}),
               PreconditionError);
  EXPECT_THROW(beta.record_transaction({0, 1, 0, 0.0, 0.5}),
               PreconditionError);
  beta.record_transaction({0, 1, 0, 5.0, 3.0});
  EXPECT_THROW(beta.record_transaction({0, 1, 0, 1.0, 3.0}),
               PreconditionError);  // time backwards
  EXPECT_THROW(BetaReputationPolicy({}, 0, 1), PreconditionError);
}

TEST(BetaVsGamma, CollusionInflatesBetaButNotGamma) {
  // A misbehaving target (true conduct 1.5) with 5 colluders flooding 6.0
  // ratings and 2 honest witnesses reporting the truth.  Beta pools all
  // evidence equally; the paper's Γ discounts allied recommenders via R.
  constexpr double kTruth = 1.5;

  BetaReputationPolicy beta({}, 10, 1);
  TrustEngineConfig cfg;
  cfg.alliance_discount = 0.1;
  TrustEngine gamma(cfg, 10, 1);
  const EntityId target = 1;
  double clock = 0.0;
  for (EntityId z : {2u, 3u, 4u, 5u, 6u}) {  // colluders
    gamma.alliances().ally(z, target);
    for (int i = 0; i < 4; ++i) {
      clock += 1.0;
      beta.record_transaction({z, target, 0, clock, 6.0});
      gamma.record_transaction({z, target, 0, clock, 6.0});
    }
  }
  for (EntityId z : {7u, 8u}) {  // honest witnesses
    for (int i = 0; i < 4; ++i) {
      clock += 1.0;
      beta.record_transaction({z, target, 0, clock, kTruth});
      gamma.record_transaction({z, target, 0, clock, kTruth});
    }
  }
  const double beta_view = beta.evaluate(0, target, 0, clock);
  const double gamma_view = gamma.eventual_trust(0, target, 0, clock);
  // Beta is whitewashed well above the truth; Γ stays near it.
  EXPECT_GT(beta_view, kTruth + 1.5);
  EXPECT_LT(gamma_view, kTruth + 1.0);
  EXPECT_LT(gamma_view, beta_view - 1.5);
}

TEST(BetaVsGamma, AgreeWithoutCollusion) {
  // With honest unanimous witnesses both models land on the conduct.
  BetaReputationPolicy beta({}, 6, 1);
  TrustEngine gamma({}, 6, 1);
  double clock = 0.0;
  for (EntityId z : {1u, 2u, 3u, 4u}) {
    for (int i = 0; i < 6; ++i) {
      clock += 1.0;
      beta.record_transaction({z, 0, 0, clock, 5.0});
      gamma.record_transaction({z, 0, 0, clock, 5.0});
    }
  }
  EXPECT_NEAR(beta.evaluate(5, 0, 0, clock), 5.0, 0.4);
  EXPECT_NEAR(gamma.eventual_trust(5, 0, 0, clock), 5.0, 0.4);
}

}  // namespace
}  // namespace gridtrust::trust
