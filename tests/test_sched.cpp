// Tests for the scheduling core: ESC models, problems, schedules, and the
// full heuristic suite on hand-worked instances plus property sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/executor.hpp"
#include "sched/heuristic.hpp"
#include "sched/matrix.hpp"
#include "sched/problem.hpp"
#include "sched/schedule.hpp"
#include "sched/security_model.hpp"

namespace gridtrust::sched {
namespace {

using trust::TrustLevel;

// ---------------------------------------------------------------- matrix

TEST(Matrix, StoresAndChecksBounds) {
  CostMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.at(1, 2), 1.5);
  m.at(1, 2) = 7.0;
  EXPECT_EQ(m.get(1, 2), 7.0);
  EXPECT_THROW(m.at(2, 0), PreconditionError);
  EXPECT_THROW(m.at(0, 3), PreconditionError);
  EXPECT_THROW(CostMatrix(0, 3), PreconditionError);
}

// ---------------------------------------------------------------- ESC model

TEST(SecurityModel, PaperEquations) {
  const SecurityCostModel model;  // tc weight 15, blanket 50
  // Trust-aware: ESC = EEC * (TC * 15) / 100.
  EXPECT_NEAR(model.esc(CostModel::kTrustCost, 100.0, 0), 0.0, 1e-12);
  EXPECT_NEAR(model.esc(CostModel::kTrustCost, 100.0, 2), 30.0, 1e-12);
  EXPECT_NEAR(model.esc(CostModel::kTrustCost, 100.0, 6), 90.0, 1e-12);
  // Trust-unaware: ESC = EEC * 50 / 100.
  EXPECT_NEAR(model.esc(CostModel::kBlanket, 100.0, 3), 50.0, 1e-12);
  EXPECT_NEAR(model.esc(CostModel::kNone, 100.0, 6), 0.0, 1e-12);
  // ECC = EEC + ESC.
  EXPECT_NEAR(model.ecc(CostModel::kTrustCost, 100.0, 3), 145.0, 1e-12);
  EXPECT_NEAR(model.ecc(CostModel::kBlanket, 100.0, 3), 150.0, 1e-12);
}

TEST(SecurityModel, AverageTcTimesWeightMatchesPaperNarrative) {
  // "when trust is considered, on average the ESC values are calculated as
  // 45% of the EEC": TC midpoint 3 x weight 15 = 45.
  const SecurityCostModel model;
  EXPECT_NEAR(model.esc(CostModel::kTrustCost, 100.0, 3), 45.0, 1e-12);
}

TEST(SecurityModel, TrustCostClampedDifferenceByDefault) {
  const SecurityCostModel model;
  EXPECT_EQ(model.trust_cost(TrustLevel::kE, TrustLevel::kB), 3);
  EXPECT_EQ(model.trust_cost(TrustLevel::kB, TrustLevel::kE), 0);
  // Default interpretation: F behaves as the plain numeric 6.
  EXPECT_EQ(model.trust_cost(TrustLevel::kF, TrustLevel::kE), 1);
}

TEST(SecurityModel, Table1ForcedFMode) {
  SecurityCostConfig cfg;
  cfg.table1_forced_f = true;
  const SecurityCostModel model(cfg);
  EXPECT_EQ(model.trust_cost(TrustLevel::kF, TrustLevel::kE), 6);
  EXPECT_EQ(model.trust_cost(TrustLevel::kE, TrustLevel::kB), 3);
}

TEST(SecurityModel, CustomWeights) {
  SecurityCostConfig cfg;
  cfg.tc_weight_pct = 10.0;
  cfg.blanket_pct = 80.0;
  const SecurityCostModel model(cfg);
  EXPECT_NEAR(model.esc(CostModel::kTrustCost, 50.0, 4), 20.0, 1e-12);
  EXPECT_NEAR(model.esc(CostModel::kBlanket, 50.0, 4), 40.0, 1e-12);
}

TEST(SecurityModel, Validation) {
  SecurityCostConfig bad;
  bad.tc_weight_pct = -1;
  EXPECT_THROW(SecurityCostModel{bad}, PreconditionError);
  const SecurityCostModel model;
  EXPECT_THROW(model.esc(CostModel::kTrustCost, -1.0, 0), PreconditionError);
  EXPECT_THROW(model.esc(CostModel::kTrustCost, 1.0, 7), PreconditionError);
}

TEST(SecurityModel, RejectsNonFiniteWeights) {
  SecurityCostConfig tc_inf;
  tc_inf.tc_weight_pct = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SecurityCostModel{tc_inf}, PreconditionError);
  SecurityCostConfig blanket_inf;
  blanket_inf.blanket_pct = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SecurityCostModel{blanket_inf}, PreconditionError);
}

TEST(Policies, FactoryShapes) {
  EXPECT_EQ(trust_aware_policy().decision, CostModel::kTrustCost);
  EXPECT_EQ(trust_aware_policy().actual, CostModel::kTrustCost);
  EXPECT_EQ(trust_unaware_policy().decision, CostModel::kNone);
  EXPECT_EQ(trust_unaware_policy().actual, CostModel::kBlanket);
  EXPECT_EQ(unaware_placement_tc_priced_policy().actual,
            CostModel::kTrustCost);
  EXPECT_EQ(aware_placement_blanket_priced_policy().decision,
            CostModel::kBlanket);
}

// ---------------------------------------------------------------- problem

SchedulingProblem tiny_problem(SchedulingPolicy policy,
                               std::vector<double> arrivals = {}) {
  CostMatrix eec(3, 2);
  const double vals[3][2] = {{3, 4}, {2, 5}, {4, 1}};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t m = 0; m < 2; ++m) eec.at(r, m) = vals[r][m];
  }
  TrustCostMatrix tc(3, 2, 0);
  return SchedulingProblem(std::move(eec), std::move(tc), std::move(policy),
                           SecurityCostModel{}, std::move(arrivals));
}

TEST(Problem, DecisionAndActualCostsFollowPolicy) {
  const SchedulingProblem aware = tiny_problem(trust_aware_policy());
  EXPECT_EQ(aware.decision_cost(0, 0), 3.0);  // tc = 0 -> pure EEC
  EXPECT_EQ(aware.actual_cost(0, 0), 3.0);
  const SchedulingProblem unaware = tiny_problem(trust_unaware_policy());
  EXPECT_EQ(unaware.decision_cost(0, 0), 3.0);
  EXPECT_EQ(unaware.actual_cost(0, 0), 4.5);  // blanket +50 %
}

TEST(Problem, WithPolicyRebindsCosts) {
  const SchedulingProblem unaware = tiny_problem(trust_unaware_policy());
  const SchedulingProblem aware = unaware.with_policy(trust_aware_policy());
  EXPECT_EQ(aware.actual_cost(1, 0), 2.0);
  EXPECT_EQ(unaware.actual_cost(1, 0), 3.0);
  EXPECT_EQ(aware.num_requests(), 3u);
}

TEST(Problem, ValidatesShapesAndValues) {
  CostMatrix eec(2, 2, 1.0);
  TrustCostMatrix tc_wrong(3, 2, 0);
  EXPECT_THROW(SchedulingProblem(eec, tc_wrong, trust_aware_policy(),
                                 SecurityCostModel{}),
               PreconditionError);
  TrustCostMatrix tc_bad(2, 2, 9);
  EXPECT_THROW(SchedulingProblem(eec, tc_bad, trust_aware_policy(),
                                 SecurityCostModel{}),
               PreconditionError);
  TrustCostMatrix tc(2, 2, 0);
  EXPECT_THROW(SchedulingProblem(eec, tc, trust_aware_policy(),
                                 SecurityCostModel{}, {1.0}),
               PreconditionError);  // arrivals don't cover requests
}

TEST(Problem, RejectsNonFiniteCostsAndArrivals) {
  // An infinite EEC with trust cost 0 would price ESC as inf x 0 = NaN,
  // and every heuristic comparison against NaN is false.
  const double inf = std::numeric_limits<double>::infinity();
  TrustCostMatrix tc(2, 2, 0);
  CostMatrix eec_inf(2, 2, 1.0);
  eec_inf.at(1, 0) = inf;
  EXPECT_THROW(SchedulingProblem(eec_inf, tc, trust_aware_policy(),
                                 SecurityCostModel{}),
               PreconditionError);
  const CostMatrix eec(2, 2, 1.0);
  for (const double bad : {std::nan(""), -1.0, inf}) {
    EXPECT_THROW(SchedulingProblem(eec, tc, trust_aware_policy(),
                                   SecurityCostModel{}, {0.0, bad}),
                 PreconditionError)
        << "arrival " << bad;
  }
}

TEST(Problem, RejectsNonFiniteExtraCosts) {
  SchedulingProblem p = tiny_problem(trust_aware_policy());
  const CostMatrix zero(3, 2, 0.0);
  CostMatrix bad(3, 2, 0.0);
  bad.at(2, 1) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(p.set_extra_costs(bad, zero), PreconditionError);
  EXPECT_THROW(p.set_extra_costs(zero, bad), PreconditionError);
  EXPECT_EQ(p.decision_cost(2, 1), 1.0);  // rows untouched by the rejection
}

TEST(Problem, ArrivalDefaultsToZero) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  EXPECT_EQ(p.arrival_time(2), 0.0);
  EXPECT_THROW(p.arrival_time(3), PreconditionError);
  const SchedulingProblem q =
      tiny_problem(trust_aware_policy(), {0.0, 1.5, 2.5});
  EXPECT_EQ(q.arrival_time(1), 1.5);
}

// ------------------------------------------------------- compute_trust_costs

TEST(TrustCosts, CompositeOtlAndEffectiveRtl) {
  grid::GridSystemBuilder builder(grid::ActivityCatalog::standard());
  const auto gd0 = builder.add_grid_domain("gd0");
  const auto gd1 = builder.add_grid_domain("gd1");
  builder.add_machine(gd0, "m0");
  builder.add_machine(gd1, "m1");
  const grid::GridSystem g = builder.build();

  trust::TrustLevelTable table(2, 2, 8);
  // CD 0 vs RD 0: activity 0 at E, activity 1 at B -> composite OTL = B.
  table.set(0, 0, 0, TrustLevel::kE);
  table.set(0, 0, 1, TrustLevel::kB);
  // CD 0 vs RD 1: both activities at D.
  table.set(0, 1, 0, TrustLevel::kD);
  table.set(0, 1, 1, TrustLevel::kD);

  grid::Request req;
  req.id = 0;
  req.client_domain = 0;
  req.activities = {0, 1};
  req.client_rtl = TrustLevel::kC;
  req.resource_rtl = TrustLevel::kE;  // effective RTL = E (5)

  const SecurityCostModel model;
  const TrustCostMatrix tc = compute_trust_costs(g, {req}, table, model);
  EXPECT_EQ(tc.at(0, 0), 3);  // E(5) - B(2)
  EXPECT_EQ(tc.at(0, 1), 1);  // E(5) - D(4)
}

TEST(TrustCosts, UnsupportedActivityGetsPenalty) {
  grid::GridSystemBuilder builder(grid::ActivityCatalog::standard());
  const auto gd0 = builder.add_grid_domain("gd0");
  builder.add_machine(gd0, "m0");
  builder.set_supported_activities(gd0, {0});  // only activity 0
  const grid::GridSystem g = builder.build();
  trust::TrustLevelTable table(1, 1, 8);
  table.set(0, 0, 0, TrustLevel::kE);
  table.set(0, 0, 1, TrustLevel::kE);

  grid::Request req;
  req.client_domain = 0;
  req.activities = {0, 1};  // activity 1 unsupported
  req.client_rtl = TrustLevel::kA;
  req.resource_rtl = TrustLevel::kA;
  const TrustCostMatrix tc =
      compute_trust_costs(g, {req}, table, SecurityCostModel{});
  EXPECT_EQ(tc.at(0, 0), trust::kMaxTrustCost);
}

TEST(TrustCosts, ToaOutsideTheCatalogIsRejected) {
  // ToA 9 is not in the standard 8-ToA catalog.  Whether or not the
  // machine's RD has a support list, pricing rejects the request rather
  // than pricing it as unsupported or reading past the catalog.
  for (const bool support_list : {false, true}) {
    SCOPED_TRACE(support_list ? "support list" : "supports everything");
    grid::GridSystemBuilder builder(grid::ActivityCatalog::standard());
    const auto gd = builder.add_grid_domain("gd");
    builder.add_machine(gd, "m");
    if (support_list) builder.set_supported_activities(gd, {0});
    const grid::GridSystem g = builder.build();
    grid::Request req;
    req.client_domain = 0;
    req.activities = {0, 9};

    const trust::TrustLevelTable table(1, 1, 8);
    EXPECT_THROW(compute_trust_costs(g, {req}, table, SecurityCostModel{}),
                 PreconditionError);
  }
}

TEST(TrustCosts, Validation) {
  grid::GridSystemBuilder builder(grid::ActivityCatalog::standard());
  builder.add_machine(builder.add_grid_domain("gd"), "m");
  const grid::GridSystem g = builder.build();
  trust::TrustLevelTable table(1, 1, 8);
  EXPECT_THROW(compute_trust_costs(g, {}, table, SecurityCostModel{}),
               PreconditionError);
  grid::Request no_acts;
  no_acts.client_domain = 0;
  EXPECT_THROW(compute_trust_costs(g, {no_acts}, table, SecurityCostModel{}),
               PreconditionError);
  trust::TrustLevelTable wrong(2, 1, 8);
  grid::Request ok;
  ok.client_domain = 0;
  ok.activities = {0};
  EXPECT_THROW(compute_trust_costs(g, {ok}, wrong, SecurityCostModel{}),
               PreconditionError);
}

// ---------------------------------------------------------------- schedule

TEST(Schedule, CommitMathAndMetrics) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  Schedule s = Schedule::for_problem(p);
  commit_assignment(p, 0, 0, 0.0, s);
  EXPECT_EQ(s.machine_of[0], 0u);
  EXPECT_EQ(s.start[0], 0.0);
  EXPECT_EQ(s.completion[0], 3.0);
  EXPECT_EQ(s.machine_available[0], 3.0);
  EXPECT_FALSE(s.complete());
  commit_assignment(p, 1, 0, 0.0, s);
  commit_assignment(p, 2, 1, 0.0, s);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.makespan(), 5.0);
  // busy: m0 = 5, m1 = 1 -> utilization = 6 / (2*5) = 60 %.
  EXPECT_NEAR(s.utilization_pct(), 60.0, 1e-9);
}

TEST(Schedule, ReadyAndArrivalFloorsCreateIdleGaps) {
  const SchedulingProblem p =
      tiny_problem(trust_aware_policy(), {0.0, 10.0, 0.0});
  Schedule s = Schedule::for_problem(p);
  commit_assignment(p, 0, 0, 0.0, s);  // completes at 3
  commit_assignment(p, 1, 0, 0.0, s);  // arrival 10 floors the start
  EXPECT_EQ(s.start[1], 10.0);
  EXPECT_EQ(s.completion[1], 12.0);
  EXPECT_EQ(s.machine_available[0], 12.0);
  EXPECT_EQ(s.machine_busy[0], 5.0);  // idle gap not counted as busy
  // Explicit ready floor (e.g. batch formation time).
  commit_assignment(p, 2, 1, 20.0, s);
  EXPECT_EQ(s.start[2], 20.0);
}

TEST(Schedule, RejectsDoubleAssignment) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  Schedule s = Schedule::for_problem(p);
  commit_assignment(p, 0, 0, 0.0, s);
  EXPECT_THROW(commit_assignment(p, 0, 1, 0.0, s), PreconditionError);
}

TEST(Schedule, MeanFlowTime) {
  const SchedulingProblem p =
      tiny_problem(trust_aware_policy(), {0.0, 1.0, 2.0});
  Schedule s = Schedule::for_problem(p);
  commit_assignment(p, 0, 0, 0.0, s);  // completion 3, flow 3
  commit_assignment(p, 1, 1, 0.0, s);  // start 1, completion 6, flow 5
  commit_assignment(p, 2, 0, 0.0, s);  // start 3, completion 7, flow 5
  EXPECT_NEAR(s.mean_flow_time(p), (3.0 + 5.0 + 5.0) / 3.0, 1e-12);
}

// ---------------------------------------------------------------- heuristics

TEST(Immediate, MctHandWorkedInstance) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto mct = make_mct();
  const Schedule s = run_immediate(p, *mct);
  EXPECT_EQ(s.machine_of[0], 0u);  // 3 < 4
  EXPECT_EQ(s.machine_of[1], 0u);  // 5 == 5, lowest index wins
  EXPECT_EQ(s.machine_of[2], 1u);  // 9 vs 1
  EXPECT_EQ(s.makespan(), 5.0);
}

TEST(Immediate, MetIgnoresAvailability) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto met = make_met();
  const Schedule s = run_immediate(p, *met);
  EXPECT_EQ(s.machine_of[0], 0u);
  EXPECT_EQ(s.machine_of[1], 0u);
  EXPECT_EQ(s.machine_of[2], 1u);
}

TEST(Immediate, OlbBalancesAvailabilityOnly) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto olb = make_olb();
  const Schedule s = run_immediate(p, *olb);
  EXPECT_EQ(s.machine_of[0], 0u);  // both idle, lowest index
  EXPECT_EQ(s.machine_of[1], 1u);  // m0 busy until 3
  EXPECT_EQ(s.machine_of[2], 0u);  // avail (3, 5)
}

TEST(Immediate, KpbFullPercentEqualsMct) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto kpb = make_kpb(100.0);
  auto mct = make_mct();
  const Schedule a = run_immediate(p, *kpb);
  const Schedule b = run_immediate(p, *mct);
  EXPECT_EQ(a.machine_of, b.machine_of);
}

TEST(Immediate, KpbSmallPercentRestrictsToBestCostMachine) {
  // With k so small the subset is a single machine, KPB degenerates to MET.
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto kpb = make_kpb(1.0);
  auto met = make_met();
  const Schedule a = run_immediate(p, *kpb);
  const Schedule b = run_immediate(p, *met);
  EXPECT_EQ(a.machine_of, b.machine_of);
  EXPECT_THROW(make_kpb(0.0), PreconditionError);
  EXPECT_THROW(make_kpb(101.0), PreconditionError);
}

TEST(Immediate, SwitchingStartsLikeMctAndCanSwitchToMet) {
  // With high = 0.5 and an initially balanced (empty) system, the index is
  // 1.0 so the first decision already uses MET.
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto sa = make_switching(0.0, 0.5);
  auto met = make_met();
  Schedule s = Schedule::for_problem(p);
  sa->reset();
  const std::size_t pick = sa->select_machine(p, 0, 0.0, s);
  Schedule s2 = Schedule::for_problem(p);
  EXPECT_EQ(pick, met->select_machine(p, 0, 0.0, s2));
  EXPECT_THROW(make_switching(0.9, 0.5), PreconditionError);
}

TEST(Batch, MinMinHandWorkedInstance) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto h = make_min_min();
  const Schedule s = run_batch_all(p, *h);
  // Order of commitment: r2 -> m1 (1), r1 -> m0 (2), r0 -> m0 (5).
  EXPECT_EQ(s.machine_of[2], 1u);
  EXPECT_EQ(s.machine_of[1], 0u);
  EXPECT_EQ(s.machine_of[0], 0u);
  EXPECT_EQ(s.makespan(), 5.0);
}

TEST(Batch, MaxMinHandWorkedInstance) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto h = make_max_min();
  const Schedule s = run_batch_all(p, *h);
  // r0 commits first (largest best completion 3).
  EXPECT_EQ(s.machine_of[0], 0u);
  EXPECT_EQ(s.machine_of[1], 0u);
  EXPECT_EQ(s.machine_of[2], 1u);
  EXPECT_EQ(s.makespan(), 5.0);
}

TEST(Batch, SufferageHandWorkedInstance) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto h = make_sufferage();
  const Schedule s = run_batch_all(p, *h);
  // Iteration 1: r1 takes m0 from r0 (sufferage 3 > 1); r2 takes m1.
  // Iteration 2: r0 -> m0.
  EXPECT_EQ(s.machine_of[1], 0u);
  EXPECT_EQ(s.machine_of[2], 1u);
  EXPECT_EQ(s.machine_of[0], 0u);
  EXPECT_EQ(s.completion[1], 2.0);
  EXPECT_EQ(s.completion[0], 5.0);
}

TEST(Batch, DuplexPicksTheBetterOfMinMinAndMaxMin) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto duplex = make_duplex();
  auto minmin = make_min_min();
  auto maxmin = make_max_min();
  const double d = run_batch_all(p, *duplex).makespan();
  const double mn = run_batch_all(p, *minmin).makespan();
  const double mx = run_batch_all(p, *maxmin).makespan();
  EXPECT_EQ(d, std::min(mn, mx));
}

SchedulingProblem random_problem(std::uint64_t seed, SchedulingPolicy policy,
                                 std::size_t n = 40, std::size_t m = 6) {
  Rng rng(seed);
  CostMatrix eec(n, m);
  TrustCostMatrix tc(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      eec.at(r, c) = rng.uniform(1.0, 100.0);
      tc.at(r, c) = static_cast<int>(rng.uniform_int(0, 6));
    }
  }
  return SchedulingProblem(std::move(eec), std::move(tc), std::move(policy),
                           SecurityCostModel{});
}

TEST(Batch, RejectsAlreadyAssignedRequests) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  auto h = make_min_min();
  Schedule s = Schedule::for_problem(p);
  commit_assignment(p, 0, 0, 0.0, s);
  EXPECT_THROW(h->map_batch(p, {0, 1}, 0.0, s), PreconditionError);
}

TEST(Batch, RejectsDuplicateRequestsBeforeAnyCommit) {
  const SchedulingProblem p = tiny_problem(trust_aware_policy());
  for (const char* name : {"min-min", "max-min", "sufferage", "duplex"}) {
    SCOPED_TRACE(name);
    auto h = make_batch(name);
    Schedule s = Schedule::for_problem(p);
    commit_assignment(p, 2, 1, 0.0, s);
    const Schedule before = s;
    EXPECT_THROW(h->map_batch(p, {0, 1, 0}, 0.0, s), PreconditionError);
    EXPECT_EQ(s.machine_of, before.machine_of);
    EXPECT_EQ(s.start, before.start);
    EXPECT_EQ(s.completion, before.completion);
    EXPECT_EQ(s.machine_available, before.machine_available);
    EXPECT_EQ(s.machine_busy, before.machine_busy);
  }
}

TEST(Registry, FactoriesAndNames) {
  for (const std::string& name : immediate_heuristic_names()) {
    EXPECT_EQ(make_immediate(name)->name(), name);
  }
  for (const std::string& name : batch_heuristic_names()) {
    EXPECT_EQ(make_batch(name)->name(), name);
  }
  EXPECT_THROW(make_immediate("nope"), PreconditionError);
  EXPECT_THROW(make_batch("nope"), PreconditionError);
  // The GA, simulated-annealing and tabu mappers are retired: no paper
  // table or catalog spec runs them.
  for (const char* retired : {"genetic", "annealing", "tabu"}) {
    EXPECT_THROW(make_batch(retired), PreconditionError) << retired;
  }
}

// ------------------------------------------------------------- properties


class HeuristicProperties
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(HeuristicProperties, SchedulesAreCompleteAndConsistent) {
  const auto& [name, seed] = GetParam();
  const SchedulingProblem p = random_problem(seed, trust_aware_policy());

  const auto run = [&](const SchedulingProblem& prob) {
    const auto imm = immediate_heuristic_names();
    if (std::find(imm.begin(), imm.end(), name) != imm.end()) {
      auto h = make_immediate(name);
      return run_immediate(prob, *h);
    }
    auto h = make_batch(name);
    return run_batch_all(prob, *h);
  };

  const Schedule s = run(p);
  ASSERT_TRUE(s.complete());

  // Makespan bounds: at least the largest single best cost; at most the
  // serial sum of worst costs.
  double lower = 0.0;
  double upper = 0.0;
  for (std::size_t r = 0; r < p.num_requests(); ++r) {
    double best = p.actual_cost(r, 0);
    double worst = best;
    for (std::size_t m = 1; m < p.num_machines(); ++m) {
      best = std::min(best, p.actual_cost(r, m));
      worst = std::max(worst, p.actual_cost(r, m));
    }
    lower = std::max(lower, best);
    upper += worst;
  }
  EXPECT_GE(s.makespan(), lower - 1e-9);
  EXPECT_LE(s.makespan(), upper + 1e-9);
  EXPECT_GT(s.utilization_pct(), 0.0);
  EXPECT_LE(s.utilization_pct(), 100.0 + 1e-9);

  // Per-machine accounting: availability equals the sum of its actual
  // costs (no arrivals, so no idle gaps).
  std::vector<double> busy(p.num_machines(), 0.0);
  for (std::size_t r = 0; r < p.num_requests(); ++r) {
    busy[s.machine_of[r]] += p.actual_cost(r, s.machine_of[r]);
  }
  for (std::size_t m = 0; m < p.num_machines(); ++m) {
    EXPECT_NEAR(s.machine_available[m], busy[m], 1e-6);
    EXPECT_NEAR(s.machine_busy[m], busy[m], 1e-6);
  }

  // Determinism: a second run reproduces the mapping exactly.
  const Schedule again = run(p);
  EXPECT_EQ(s.machine_of, again.machine_of);
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristics, HeuristicProperties,
    ::testing::Combine(::testing::Values("olb", "met", "mct", "kpb",
                                         "switching", "min-min", "max-min",
                                         "sufferage", "duplex"),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
           param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

TEST_P(HeuristicProperties, MachineTimelinesNeverOverlap) {
  const auto& [name, seed] = GetParam();
  const SchedulingProblem p = random_problem(seed + 50, trust_aware_policy());
  const auto imm = immediate_heuristic_names();
  Schedule s;
  if (std::find(imm.begin(), imm.end(), name) != imm.end()) {
    auto h = make_immediate(name);
    s = run_immediate(p, *h);
  } else {
    auto h = make_batch(name);
    s = run_batch_all(p, *h);
  }
  // Group intervals per machine, sort by start, assert no overlap.
  std::vector<std::vector<std::pair<double, double>>> spans(p.num_machines());
  for (std::size_t r = 0; r < p.num_requests(); ++r) {
    spans[s.machine_of[r]].push_back({s.start[r], s.completion[r]});
  }
  for (auto& machine_spans : spans) {
    std::sort(machine_spans.begin(), machine_spans.end());
    for (std::size_t i = 1; i < machine_spans.size(); ++i) {
      EXPECT_GE(machine_spans[i].first, machine_spans[i - 1].second - 1e-9);
    }
  }
}

class PolicyProperties
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PolicyProperties, CostViewsObeyTheirModels) {
  const auto& [which, seed] = GetParam();
  const std::vector<SchedulingPolicy> policies = {
      trust_aware_policy(), trust_unaware_policy(),
      unaware_placement_tc_priced_policy(),
      aware_placement_blanket_priced_policy()};
  const SchedulingPolicy policy = policies[static_cast<std::size_t>(which)];
  const SchedulingProblem p = random_problem(seed, policy, 25, 5);
  const SecurityCostModel model;
  for (std::size_t r = 0; r < p.num_requests(); ++r) {
    for (std::size_t m = 0; m < p.num_machines(); ++m) {
      const double eec = p.eec(r, m);
      const int tc = p.trust_cost(r, m);
      EXPECT_NEAR(p.decision_cost(r, m), model.ecc(policy.decision, eec, tc),
                  1e-12);
      EXPECT_NEAR(p.actual_cost(r, m), model.ecc(policy.actual, eec, tc),
                  1e-12);
      // Actual cost always includes the full EEC.
      EXPECT_GE(p.actual_cost(r, m), eec - 1e-12);
      // Decision cost never exceeds the blanket-priced ceiling.
      EXPECT_LE(p.decision_cost(r, m),
                eec * (1.0 + 0.15 * 6.0) + 1e-9);
    }
  }
}

std::string policy_case_name(
    const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& param_info) {
  static const char* kNames[] = {"aware", "unaware", "mid_tc", "mid_blanket"};
  return std::string(kNames[std::get<0>(param_info.param)]) + "_seed" +
         std::to_string(std::get<1>(param_info.param));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperties,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(11u, 12u)),
                         policy_case_name);

TEST(Properties, BlanketActualScalesMakespanByExactlyHalf) {
  // Under the trust-unaware policy the mapping minimizes bare EEC but pays
  // 1.5x; the realized makespan must be exactly 1.5x the EEC makespan of
  // the same mapping.
  const SchedulingProblem unaware =
      random_problem(77, trust_unaware_policy());
  auto mct = make_mct();
  const Schedule s = run_immediate(unaware, *mct);
  double eec_makespan = 0.0;
  std::vector<double> load(unaware.num_machines(), 0.0);
  for (std::size_t r = 0; r < unaware.num_requests(); ++r) {
    load[s.machine_of[r]] += unaware.eec(r, s.machine_of[r]);
  }
  for (const double l : load) eec_makespan = std::max(eec_makespan, l);
  EXPECT_NEAR(s.makespan(), 1.5 * eec_makespan, 1e-6);
}

TEST(Properties, ZeroTrustCostAwareBeatsUnawareAcrossSeeds) {
  // With every trust cost zero the aware policy pays no security at all
  // while the unaware one pays the blanket 50 %; trust-aware makespans must
  // come out well below unaware ones on every instance of the sweep.
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    Rng rng(seed);
    CostMatrix eec(20, 4);
    for (std::size_t r = 0; r < 20; ++r) {
      for (std::size_t m = 0; m < 4; ++m) eec.at(r, m) = rng.uniform(1, 50);
    }
    TrustCostMatrix tc(20, 4, 0);
    const SchedulingProblem aware(eec, tc, trust_aware_policy(),
                                  SecurityCostModel{});
    const SchedulingProblem unaware(eec, tc, trust_unaware_policy(),
                                    SecurityCostModel{});
    auto mct_a = make_mct();
    auto mct_b = make_mct();
    const Schedule sa = run_immediate(aware, *mct_a);
    const Schedule sb = run_immediate(unaware, *mct_b);
    EXPECT_LT(sa.makespan(), sb.makespan()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gridtrust::sched
