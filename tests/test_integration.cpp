// Cross-module integration tests: the full Fig. 1 loop (transactions ->
// trust agents -> trust-level table -> trust-aware scheduling), end-to-end
// experiment properties, and paper-shape regression checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/stats.hpp"
#include "net/transfer_model.hpp"
#include "paired_sweep.hpp"
#include "sched/executor.hpp"
#include "sched/problem.hpp"
#include "sfi/harness.hpp"
#include "sim/experiment.hpp"
#include "trust/agents.hpp"
#include "trust/gamma_policy.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"

namespace gridtrust {
namespace {

// ------------------------------------------------ Fig. 1 closed loop

TEST(Integration, TrustAgentsFeedTheSchedulerTable) {
  // Build a 2-domain grid; domain 1 behaves badly in transactions.  After
  // the agents refresh the table, a high-RTL request must be steered to the
  // trustworthy domain even when its EEC there is slightly worse.
  Rng rng(1);
  grid::GridSystemBuilder builder(grid::ActivityCatalog::standard());
  const auto gd0 = builder.add_grid_domain("honest");
  const auto gd1 = builder.add_grid_domain("shady");
  builder.add_machine(gd0, "m0");
  builder.add_machine(gd1, "m1");
  const grid::GridSystem grid = builder.build();

  trust::DomainTrustBridge bridge(
      std::make_unique<trust::GammaReputationPolicy>(
          trust::TrustEngineConfig{}, 4, 8),
      2, 2, 8, /*min_transactions=*/2);
  // Client domain 0 repeatedly observes good conduct at RD 0, bad at RD 1,
  // for activity 0; the resource side mirrors it.
  for (int i = 0; i < 5; ++i) {
    const double t = i;
    bridge.observe_client_side(0, 0, 0, t, 5.5);
    bridge.observe_resource_side(0, 0, 0, t, 5.5);
    bridge.observe_client_side(0, 1, 0, t, 1.5);
    bridge.observe_resource_side(1, 0, 0, t, 1.5);
  }
  trust::TrustLevelTable table(2, 2, 8);
  EXPECT_GT(bridge.refresh(table, 10.0), 0u);
  EXPECT_GT(trust::to_numeric(table.get(0, 0, 0)),
            trust::to_numeric(table.get(0, 1, 0)));

  grid::Request req;
  req.id = 0;
  req.client_domain = 0;
  req.activities = {0};
  req.client_rtl = trust::TrustLevel::kE;
  req.resource_rtl = trust::TrustLevel::kE;

  sched::SecurityCostModel model;
  sched::CostMatrix eec(1, 2);
  eec.at(0, 0) = 110.0;  // honest domain slightly slower
  eec.at(0, 1) = 100.0;
  const sched::TrustCostMatrix tc =
      sched::compute_trust_costs(grid, {req}, table, model);
  EXPECT_LT(tc.at(0, 0), tc.at(0, 1));

  const sched::SchedulingProblem problem(eec, tc, sched::trust_aware_policy(),
                                         model);
  auto mct = sched::make_mct();
  const sched::Schedule s = sched::run_immediate(problem, *mct);
  EXPECT_EQ(s.machine_of[0], 0u) << "trust-aware MCT must prefer the "
                                    "trustworthy domain";
}

TEST(Integration, MisbehaviourErodesTrustOverTime) {
  trust::TrustEngineConfig cfg;
  cfg.learning_rate = 0.4;
  trust::DomainTrustBridge bridge(
      std::make_unique<trust::GammaReputationPolicy>(cfg, 2, 1), 1, 1, 1, 1);
  trust::TrustLevelTable table(1, 1, 1);
  // Start trustworthy.
  for (int i = 0; i < 4; ++i) {
    bridge.observe_client_side(0, 0, 0, i, 5.0);
    bridge.observe_resource_side(0, 0, 0, i, 5.0);
  }
  bridge.refresh(table, 4.0);
  const int before = trust::to_numeric(table.get(0, 0, 0));
  // Then betray repeatedly.
  for (int i = 5; i < 12; ++i) {
    bridge.observe_client_side(0, 0, 0, i, 1.0);
    bridge.observe_resource_side(0, 0, 0, i, 1.0);
  }
  bridge.refresh(table, 12.0);
  const int after = trust::to_numeric(table.get(0, 0, 0));
  EXPECT_LT(after, before);
}

// ------------------------------------------------ end-to-end experiments

class PaperShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(PaperShapeSweep, TrustAwareWinsForEveryPaperCell) {
  const auto& [heuristic, consistent] = GetParam();
  sim::Scenario scenario;
  scenario.tasks = 50;
  scenario.heterogeneity = consistent ? workload::consistent_lolo()
                                      : workload::inconsistent_lolo();
  if (heuristic != "mct") {
    scenario.rms.mode = sim::SchedulingMode::kBatch;
    scenario.rms.heuristic = heuristic;
  }
  const lab::AggregateSet result =
      testing_support::run_paired_cell(scenario, 15, 4242);
  EXPECT_GT(result.mean("improvement_pct"), 5.0)
      << heuristic << (consistent ? " consistent" : " inconsistent");
  EXPECT_EQ(result.mean("significant"), 1.0);
  EXPECT_GT(result.mean("unaware.utilization_pct"), 75.0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCells, PaperShapeSweep,
    ::testing::Combine(::testing::Values("mct", "min-min", "sufferage"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>&
           param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(param_info.param) ? "_consistent"
                                                   : "_inconsistent");
    });

TEST(Integration, TrustAwareWinsUnderEveryBatchMapper) {
  // Beyond the paper's three heuristics: the whole batch family, including
  // the search-based mappers, must show a significant trust-aware win.
  for (const std::string& name : sched::batch_heuristic_names()) {
    sim::Scenario scenario;
    scenario.tasks = 40;
    scenario.rms.mode = sim::SchedulingMode::kBatch;
    scenario.rms.heuristic = name;
    const lab::AggregateSet result =
        testing_support::run_paired_cell(scenario, 10, 321);
    EXPECT_GT(result.mean("improvement_pct"), 0.0) << name;
    EXPECT_EQ(result.mean("significant"), 1.0) << name;
  }
}

TEST(Integration, MakespanScalesRoughlyLinearlyInTasks) {
  // The paper's tables double the makespan from 50 to 100 tasks.
  sim::Scenario s50;
  s50.tasks = 50;
  sim::Scenario s100;
  s100.tasks = 100;
  const auto r50 = testing_support::run_paired_cell(s50, 15, 99);
  const auto r100 = testing_support::run_paired_cell(s100, 15, 99);
  const double ratio =
      r100.mean("unaware.makespan") / r50.mean("unaware.makespan");
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

TEST(Integration, AblationPoliciesBracketThePaperPair) {
  // unaware-placement/tc-priced isolates the cheaper-security effect: it
  // must beat the blanket-priced unaware policy but lose to full awareness.
  sim::Scenario scenario;
  scenario.tasks = 50;
  RunningStats unaware;
  RunningStats middle;
  RunningStats aware;
  const Rng master(7);
  for (std::size_t i = 0; i < 15; ++i) {
    // One draw per replication; draw_instance does not depend on the
    // policy, so rebinding gives every policy the identical instance.
    Rng rng = master.stream(i);
    const sim::Instance instance =
        sim::draw_instance(scenario, sched::trust_unaware_policy(), rng);
    const auto makespan = [&](const sched::SchedulingPolicy& policy) {
      return sim::run_trms(instance.problem.with_policy(policy), scenario.rms)
          .makespan;
    };
    unaware.add(makespan(sched::trust_unaware_policy()));
    middle.add(makespan(sched::unaware_placement_tc_priced_policy()));
    aware.add(makespan(sched::trust_aware_policy()));
  }
  EXPECT_LT(middle.mean(), unaware.mean());
  EXPECT_LT(aware.mean(), middle.mean());
}

TEST(Integration, ForcedFInterpretationShrinksTheGain) {
  // Under the strict Table 1 reading (RTL = F forces TC = 6) a third of
  // requests pay 90 % security wherever they run, so the trust-aware
  // advantage must shrink relative to the default reading.
  sim::Scenario plain;
  plain.tasks = 50;
  sim::Scenario forced = plain;
  forced.security.table1_forced_f = true;
  const auto r_plain = testing_support::run_paired_cell(plain, 15, 31);
  const auto r_forced = testing_support::run_paired_cell(forced, 15, 31);
  EXPECT_LT(r_forced.mean("improvement_pct"), r_plain.mean("improvement_pct"));
}

TEST(Integration, BatchIntervalAffectsFlowTimeNotCorrectness) {
  sim::Scenario fast;
  fast.tasks = 40;
  fast.rms.mode = sim::SchedulingMode::kBatch;
  fast.rms.heuristic = "min-min";
  fast.rms.batch_interval = 5.0;
  sim::Scenario slow = fast;
  slow.rms.batch_interval = 80.0;
  const auto r_fast = testing_support::run_paired_cell(fast, 10, 55);
  const auto r_slow = testing_support::run_paired_cell(slow, 10, 55);
  // Fewer, larger batches with the long interval.
  EXPECT_LT(r_slow.mean("aware.batches"), r_fast.mean("aware.batches"));
  // Both complete everything; makespans stay within a sane band of each
  // other (long intervals delay starts).
  EXPECT_GT(r_slow.mean("aware.makespan"),
            0.5 * r_fast.mean("aware.makespan"));
}

TEST(Integration, ImprovementPersistsAcrossTrustDiversityLevels) {
  // Measured finding (catalog spec `diversity`): under LoLo heterogeneity the
  // trust-aware advantage is dominated by the pricing gap and consistent
  // decision units, not by placement freedom — so it must hold at *every*
  // diversity level, including a single administrative domain.
  for (const std::size_t rds : {std::size_t{1}, std::size_t{5}}) {
    sim::Scenario scenario;
    scenario.tasks = 50;
    scenario.grid.min_resource_domains = rds;
    scenario.grid.max_resource_domains = rds;
    const lab::AggregateSet result =
        testing_support::run_paired_cell(scenario, 20, 77);
    EXPECT_GT(result.mean("improvement_pct"), 10.0)
        << rds << " resource domains";
    EXPECT_EQ(result.mean("significant"), 1.0);
  }
}

TEST(Integration, SfiAndNetworkStudiesBackTheMotivation) {
  // §5.1's argument: security overheads are significant enough that the
  // scheduler should care.  Both substrate studies must agree.
  const net::LinkProfile link = net::gigabit_ethernet_link();
  const net::TransferModel model(net::piii_866_host(link), link);
  EXPECT_GT(model.security_overhead_pct(Megabytes(1000)), 30.0);
  const auto rows = sfi::measure_overheads(1, 5, 2);
  double worst = 0.0;
  for (const auto& row : rows) worst = std::max(worst, row.sasi_overhead_pct);
  EXPECT_GT(worst, 30.0);
}

}  // namespace
}  // namespace gridtrust
