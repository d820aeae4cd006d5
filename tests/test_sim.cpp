// Tests for the event-driven TRMS, paired experiments on the lab engine, and
// trust evolution in the campaign round loop.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "chaos/behavior.hpp"
#include "common/error.hpp"
#include "lab/render.hpp"
#include "paired_sweep.hpp"
#include "sched/executor.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_builder.hpp"
#include "sim/trm_simulation.hpp"

namespace gridtrust::sim {
namespace {

using testing_support::one_cell_paired_spec;
using testing_support::run_paired_cell;

sched::SchedulingProblem make_problem(std::uint64_t seed, std::size_t n,
                                      std::size_t m, double arrival_rate,
                                      sched::SchedulingPolicy policy) {
  Rng rng(seed);
  sched::CostMatrix eec(n, m);
  sched::TrustCostMatrix tc(n, m);
  std::vector<double> arrivals(n);
  double t = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      eec.at(r, c) = rng.uniform(5.0, 50.0);
      tc.at(r, c) = static_cast<int>(rng.uniform_int(0, 6));
    }
    if (arrival_rate > 0) t += rng.exponential(1.0 / arrival_rate);
    arrivals[r] = t;
  }
  return sched::SchedulingProblem(std::move(eec), std::move(tc),
                                  std::move(policy), sched::SecurityCostModel{},
                                  std::move(arrivals));
}

// --------------------------------------------------------------- immediate

TEST(TrmsImmediate, MatchesOfflineExecutor) {
  // The DES-driven immediate mode with per-arrival dispatch must reproduce
  // run_immediate exactly (same heuristic, same floors).
  const auto p =
      make_problem(1, 30, 4, 1.0, sched::trust_aware_policy());
  TrmsConfig cfg;
  cfg.mode = SchedulingMode::kImmediate;
  cfg.heuristic = "mct";
  const SimulationResult des_run = run_trms(p, cfg);
  auto mct = sched::make_mct();
  const sched::Schedule offline = sched::run_immediate(p, *mct);
  EXPECT_EQ(des_run.schedule.machine_of, offline.machine_of);
  EXPECT_NEAR(des_run.makespan, offline.makespan(), 1e-9);
  EXPECT_EQ(des_run.batches, 0u);
  EXPECT_EQ(des_run.events, 30u);
}

TEST(TrmsImmediate, AllHeuristicsProduceCompleteSchedules) {
  const auto p = make_problem(2, 25, 3, 2.0, sched::trust_unaware_policy());
  for (const std::string& name : sched::immediate_heuristic_names()) {
    TrmsConfig cfg;
    cfg.mode = SchedulingMode::kImmediate;
    cfg.heuristic = name;
    const SimulationResult result = run_trms(p, cfg);
    EXPECT_TRUE(result.schedule.complete()) << name;
    EXPECT_GT(result.makespan, 0.0) << name;
  }
}

TEST(TrmsImmediate, TasksNeverStartBeforeArrival) {
  const auto p = make_problem(3, 40, 3, 0.2, sched::trust_aware_policy());
  TrmsConfig cfg;
  cfg.mode = SchedulingMode::kImmediate;
  const SimulationResult result = run_trms(p, cfg);
  for (std::size_t r = 0; r < 40; ++r) {
    EXPECT_GE(result.schedule.start[r], p.arrival_time(r) - 1e-9);
  }
}

// --------------------------------------------------------------- batch

TEST(TrmsImmediate, FlowTimePercentilesAreOrdered) {
  const auto p = make_problem(9, 60, 4, 1.0, sched::trust_aware_policy());
  TrmsConfig cfg;
  const SimulationResult result = run_trms(p, cfg);
  EXPECT_GT(result.flow_time_p50, 0.0);
  EXPECT_GE(result.flow_time_p95, result.flow_time_p50);
  // p95 of flows cannot exceed the span of the schedule.
  EXPECT_LE(result.flow_time_p95, result.makespan + 1e-9);
  // The mean sits between the median and the tail for these right-skewed
  // queueing distributions... at minimum it must be within [min, p95+].
  EXPECT_GT(result.mean_flow_time, 0.0);
}

TEST(TrmsBatch, FormsMetaRequestsAtIntervals) {
  const auto p = make_problem(4, 50, 4, 1.0, sched::trust_aware_policy());
  TrmsConfig cfg;
  cfg.mode = SchedulingMode::kBatch;
  cfg.heuristic = "min-min";
  cfg.batch_interval = 10.0;
  const SimulationResult result = run_trms(p, cfg);
  EXPECT_TRUE(result.schedule.complete());
  EXPECT_GE(result.batches, 2u);  // 50 arrivals at rate 1 span ~50 s
  // No task may start before its batch could have formed (the first tick
  // is at t = batch_interval).
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_GE(result.schedule.start[r], cfg.batch_interval - 1e-9);
  }
}

TEST(TrmsBatch, SingleBatchEqualsOfflineBatchRun) {
  // All requests arrive at time 0 -> exactly one meta-request at the first
  // tick, equivalent to run_batch_all with ready = interval.
  const auto p = make_problem(5, 30, 4, 0.0, sched::trust_aware_policy());
  TrmsConfig cfg;
  cfg.mode = SchedulingMode::kBatch;
  cfg.heuristic = "sufferage";
  cfg.batch_interval = 5.0;
  const SimulationResult result = run_trms(p, cfg);
  EXPECT_EQ(result.batches, 1u);
  auto h = sched::make_sufferage();
  const sched::Schedule offline = sched::run_batch_all(p, *h, 5.0);
  EXPECT_EQ(result.schedule.machine_of, offline.machine_of);
  EXPECT_NEAR(result.makespan, offline.makespan(), 1e-9);
}

TEST(TrmsBatch, AllBatchHeuristicsComplete) {
  const auto p = make_problem(6, 30, 4, 1.0, sched::trust_unaware_policy());
  for (const std::string& name : sched::batch_heuristic_names()) {
    TrmsConfig cfg;
    cfg.mode = SchedulingMode::kBatch;
    cfg.heuristic = name;
    const SimulationResult result = run_trms(p, cfg);
    EXPECT_TRUE(result.schedule.complete()) << name;
  }
}

TEST(TrmsBatch, RejectsNonPositiveInterval) {
  const auto p = make_problem(7, 5, 2, 0.0, sched::trust_aware_policy());
  TrmsConfig cfg;
  cfg.mode = SchedulingMode::kBatch;
  cfg.batch_interval = 0.0;
  EXPECT_THROW(run_trms(p, cfg), PreconditionError);
}

TEST(Trms, UnknownHeuristicRejected) {
  const auto p = make_problem(8, 5, 2, 0.0, sched::trust_aware_policy());
  TrmsConfig cfg;
  cfg.heuristic = "does-not-exist";
  EXPECT_THROW(run_trms(p, cfg), PreconditionError);
}

// --------------------------------------------------------------- experiments

TEST(Experiment, ReproducibleForSeed) {
  Scenario scenario;
  scenario.tasks = 30;
  const lab::AggregateSet a = run_paired_cell(scenario, 5, 42);
  const lab::AggregateSet b = run_paired_cell(scenario, 5, 42);
  EXPECT_EQ(a.mean("unaware.makespan"), b.mean("unaware.makespan"));
  EXPECT_EQ(a.mean("aware.makespan"), b.mean("aware.makespan"));
  EXPECT_EQ(a.mean("improvement_pct"), b.mean("improvement_pct"));
}

TEST(Experiment, DifferentSeedsDiffer) {
  Scenario scenario;
  scenario.tasks = 30;
  const lab::AggregateSet a = run_paired_cell(scenario, 5, 1);
  const lab::AggregateSet b = run_paired_cell(scenario, 5, 2);
  EXPECT_NE(a.mean("unaware.makespan"), b.mean("unaware.makespan"));
}

TEST(Experiment, ParallelPoolMatchesSerial) {
  Scenario scenario;
  scenario.tasks = 25;
  ThreadPool pool(3);
  const lab::AggregateSet serial = run_paired_cell(scenario, 8, 7);
  const lab::AggregateSet parallel = run_paired_cell(scenario, 8, 7, &pool);
  EXPECT_EQ(serial.mean("unaware.makespan"),
            parallel.mean("unaware.makespan"));
  EXPECT_EQ(serial.mean("aware.makespan"), parallel.mean("aware.makespan"));
}

TEST(Experiment, TrustAwareWinsOnAverage) {
  Scenario scenario;
  scenario.tasks = 50;
  const lab::AggregateSet result = run_paired_cell(scenario, 20, 11);
  EXPECT_GT(result.mean("improvement_pct"), 0.0);
  EXPECT_LT(result.mean("aware.makespan"), result.mean("unaware.makespan"));
  EXPECT_EQ(result.mean("significant"), 1.0);
}

TEST(Experiment, UtilizationIsHighUnderSaturation) {
  Scenario scenario;
  scenario.tasks = 100;
  const lab::AggregateSet result = run_paired_cell(scenario, 10, 13);
  EXPECT_GT(result.mean("unaware.utilization_pct"), 80.0);
  EXPECT_LE(result.mean("unaware.utilization_pct"), 100.0);
  EXPECT_GT(result.mean("aware.utilization_pct"), 80.0);
}

TEST(Experiment, BatchModeScenarioRuns) {
  Scenario scenario;
  scenario.tasks = 40;
  scenario.rms.mode = SchedulingMode::kBatch;
  scenario.rms.heuristic = "min-min";
  const lab::AggregateSet result = run_paired_cell(scenario, 10, 17);
  EXPECT_GT(result.mean("improvement_pct"), 0.0);
  EXPECT_GE(result.mean("aware.batches"), 1.0);
}

TEST(Experiment, RunSingleHonorsPolicy) {
  Scenario scenario;
  scenario.tasks = 20;
  Rng rng(3);
  const Instance instance =
      draw_instance(scenario, sched::trust_aware_policy(), rng);
  const SimulationResult aware = run_trms(instance.problem, scenario.rms);
  const SimulationResult unaware = run_trms(
      instance.problem.with_policy(sched::trust_unaware_policy()),
      scenario.rms);
  // Identical instance (one draw), different policies.
  EXPECT_NE(aware.makespan, unaware.makespan);
}

TEST(Experiment, RequiresAtLeastOneReplication) {
  Scenario scenario;
  EXPECT_THROW(run_paired_cell(scenario, 0, 1), PreconditionError);
}

TEST(Experiment, DrawInstanceIsSelfConsistent) {
  Scenario scenario;
  scenario.tasks = 15;
  Rng rng(5);
  const Instance instance =
      draw_instance(scenario, sched::trust_aware_policy(), rng);
  EXPECT_EQ(instance.requests.size(), 15u);
  EXPECT_EQ(instance.problem.num_requests(), 15u);
  EXPECT_EQ(instance.problem.num_machines(), instance.grid.machines().size());
  EXPECT_EQ(instance.table.client_domains(),
            instance.grid.client_domains().size());
  for (std::size_t r = 0; r < 15; ++r) {
    EXPECT_EQ(instance.problem.arrival_time(r),
              instance.requests[r].arrival_time);
  }
}

TEST(Experiment, PaperTableLayout) {
  lab::SweepSpec spec = one_cell_paired_spec(Scenario{}, 3, 1);
  spec.axes = {{"tasks", {50, 100}}};
  spec.run = [](const lab::Cell& cell, std::uint64_t rep_seed) {
    Scenario scenario;
    scenario.tasks = static_cast<std::size_t>(cell.number("tasks"));
    return run_paired(scenario, rep_seed);
  };
  const TextTable table =
      lab::paper_schedule_table("Table X", lab::run_sweep(spec).manifest);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("Table X"), std::string::npos);
  EXPECT_NE(out.find("# of tasks"), std::string::npos);
  EXPECT_NE(out.find("Using trust"), std::string::npos);
  EXPECT_NE(out.find("Improvement"), std::string::npos);
  EXPECT_NE(out.find("50"), std::string::npos);
  EXPECT_NE(out.find("100"), std::string::npos);
  // Two rows per task count plus one separator row between the groups.
  EXPECT_EQ(table.row_count(), 5u);
}

TEST(Experiment, SummaryMentionsHeuristicAndImprovement) {
  Scenario scenario;
  scenario.tasks = 20;
  lab::SweepSpec spec = one_cell_paired_spec(scenario, 5, 3);
  spec.axes.insert(spec.axes.begin(), {"heuristic", {"mct"}});
  const std::vector<std::string> lines =
      lab::paired_summaries(lab::run_sweep(spec).manifest);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& s = lines.front();
  EXPECT_NE(s.find("mct"), std::string::npos);
  EXPECT_NE(s.find("improvement"), std::string::npos);
  EXPECT_NE(s.find("n=5"), std::string::npos);
}

TEST(ScenarioBuilder, DefaultsMatchAggregateInit) {
  const Scenario built = ScenarioBuilder().build();
  const Scenario plain;
  EXPECT_EQ(built.tasks, plain.tasks);
  EXPECT_EQ(built.grid.machines, plain.grid.machines);
  EXPECT_EQ(built.rms.heuristic, plain.rms.heuristic);
  EXPECT_EQ(built.requests.arrival_rate, plain.requests.arrival_rate);
}

TEST(ScenarioBuilder, FluentChainSetsEveryField) {
  const Scenario s = ScenarioBuilder()
                         .tasks(100)
                         .machines(8)
                         .client_domains(2, 3)
                         .resource_domains(1, 2)
                         .heuristic("min-min")
                         .batch(15.0)
                         .consistent()
                         .arrival_rate(2.0)
                         .tc_weight_pct(20.0)
                         .blanket_pct(40.0)
                         .forced_f()
                         .table_correlation(
                             workload::TableCorrelation::kIndependentPerActivity)
                         .build();
  EXPECT_EQ(s.tasks, 100u);
  EXPECT_EQ(s.grid.machines, 8u);
  EXPECT_EQ(s.grid.min_client_domains, 2u);
  EXPECT_EQ(s.grid.max_client_domains, 3u);
  EXPECT_EQ(s.rms.heuristic, "min-min");
  EXPECT_EQ(s.rms.mode, SchedulingMode::kBatch);
  EXPECT_DOUBLE_EQ(s.rms.batch_interval, 15.0);
  EXPECT_EQ(s.heterogeneity.consistency, workload::Consistency::kConsistent);
  EXPECT_DOUBLE_EQ(s.requests.arrival_rate, 2.0);
  EXPECT_DOUBLE_EQ(s.security.tc_weight_pct, 20.0);
  EXPECT_DOUBLE_EQ(s.security.blanket_pct, 40.0);
  EXPECT_TRUE(s.security.table1_forced_f);
  EXPECT_EQ(s.table_correlation,
            workload::TableCorrelation::kIndependentPerActivity);
}

TEST(ScenarioBuilder, RejectsInvalidCombinations) {
  EXPECT_THROW(ScenarioBuilder().tasks(0).build(), PreconditionError);
  EXPECT_THROW(ScenarioBuilder().machines(0).build(), PreconditionError);
  EXPECT_THROW(ScenarioBuilder().client_domains(3, 2).build(),
               PreconditionError);
  EXPECT_THROW(ScenarioBuilder().arrival_rate(-1.0).build(),
               PreconditionError);
  EXPECT_THROW(ScenarioBuilder().batch(0.0).heuristic("min-min").build(),
               PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ScenarioBuilder().tc_weight_pct(inf).build(), PreconditionError);
  EXPECT_THROW(ScenarioBuilder().blanket_pct(inf).build(), PreconditionError);
  // Heuristic-vs-mode agreement: min-min is batch-only, mct immediate-only.
  EXPECT_THROW(ScenarioBuilder().heuristic("min-min").immediate().build(),
               PreconditionError);
  EXPECT_THROW(ScenarioBuilder().heuristic("mct").batch().build(),
               PreconditionError);
  EXPECT_THROW(ScenarioBuilder().heuristic("no-such").build(),
               PreconditionError);
  EXPECT_NO_THROW(ScenarioBuilder().heuristic("min-min").batch().build());
}

TEST(ScenarioBuilder, BuiltScenarioRunsEndToEnd) {
  const Scenario s =
      ScenarioBuilder().tasks(10).machines(3).heuristic("mct").build();
  const lab::AggregateSet result = run_paired_cell(s, 2, 11);
  EXPECT_EQ(result.get("aware.makespan").n, 2u);
  EXPECT_GT(result.mean("aware.makespan"), 0.0);
}

TEST(RunReport, SimulationResultReportsScalars) {
  const auto problem =
      make_problem(5, 12, 3, 1.0, sched::trust_aware_policy());
  const SimulationResult result = run_trms(problem, TrmsConfig{});
  const obs::RunReport report = result.report();
  EXPECT_DOUBLE_EQ(report.get("makespan"), result.makespan);
  EXPECT_DOUBLE_EQ(report.get("events"),
                   static_cast<double>(result.events));
  EXPECT_DOUBLE_EQ(report.get("utilization_pct"), result.utilization_pct);
}

TEST(RunReport, ComparisonResultReportsBothArms) {
  // One paired unit reports both arms and their difference; a paired sweep
  // aggregates every one of those keys over its replications.
  Scenario scenario;
  scenario.tasks = 10;
  const obs::RunReport report = run_paired(scenario, 5);
  EXPECT_DOUBLE_EQ(report.get("makespan_diff"),
                   report.get("unaware.makespan") -
                       report.get("aware.makespan"));
  const lab::AggregateSet result = run_paired_cell(scenario, 3, 5);
  for (const std::string& name : report.names()) {
    EXPECT_EQ(result.get(name).n, 3u) << name;
  }
  EXPECT_DOUBLE_EQ(result.mean("improvement_pct"),
                   result.mean("makespan_diff") /
                       result.mean("unaware.makespan") * 100.0);
  EXPECT_GT(result.get("makespan_diff").ci95, 0.0);
}

// ------------------------------------------------------------- closed loop
//
// Trust evolution in the scheduling loop (sim::run_campaign): 6 machines in
// three resource domains of fixed conduct (exemplary, mediocre, hostile),
// two honest client domains, and a table that starts fully trusted.

std::vector<chaos::AdversarySpec> rd_conduct() {
  return {chaos::fixed_conduct(0, 5.6), chaos::fixed_conduct(1, 3.4),
          chaos::fixed_conduct(2, 1.6)};
}

/// 6 machines, 3 resource domains, 2 client domains.
ScenarioBuilder three_rd_grid() {
  ScenarioBuilder builder;
  builder.machines(6).resource_domains(3, 3).client_domains(2, 2);
  return builder;
}

Scenario loop_scenario(const std::vector<chaos::AdversarySpec>& domains,
                       const std::string& backend = "gamma") {
  return three_rd_grid()
      .with_adversaries(domains)
      .with_reputation_backend(backend)
      .build();
}

RoundConfig small_config(bool adaptive) {
  RoundConfig config;
  config.rounds = 8;
  config.tasks_per_round = 30;
  config.adaptive = adaptive;
  config.initial_level = trust::TrustLevel::kE;
  config.honest_cd_mean = 5.0;
  config.conduct_sigma = 0.3;
  return config;
}

TEST(ClosedLoop, RunsAllRoundsAndCountsTransactions) {
  const CampaignResult result =
      run_campaign(loop_scenario(rd_conduct()), small_config(true), 1);
  ASSERT_EQ(result.rounds.size(), 8u);
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].round, i);
    EXPECT_GT(result.rounds[i].makespan, 0.0);
    EXPECT_GE(result.rounds[i].mean_table_trust_cost, 0.0);
  }
  // Every request generates one client-side and one resource-side
  // transaction per activity; activities are 1-4 per request.
  EXPECT_GE(result.transactions, 2u * 8u * 30u);
  EXPECT_LE(result.transactions, 8u * 8u * 30u);
}

TEST(ClosedLoop, FrozenArmNeverTouchesTheTable) {
  const CampaignResult result =
      run_campaign(loop_scenario(rd_conduct()), small_config(false), 1);
  EXPECT_EQ(result.transactions, 0u);
  for (const CampaignRoundMetrics& round : result.rounds) {
    EXPECT_EQ(round.table_updates, 0u);
  }
  for (std::size_t rd = 0; rd < 3; ++rd) {
    EXPECT_EQ(result.final_table.get(0, rd, 0), trust::TrustLevel::kE);
  }
}

TEST(ClosedLoop, LearnsTheConductOrdering) {
  RoundConfig config = small_config(true);
  config.rounds = 10;
  const CampaignResult result =
      run_campaign(loop_scenario(rd_conduct()), config, 2);
  const int learned0 = trust::to_numeric(result.final_table.get(0, 0, 0));
  const int learned1 = trust::to_numeric(result.final_table.get(0, 1, 0));
  const int learned2 = trust::to_numeric(result.final_table.get(0, 2, 0));
  EXPECT_GT(learned0, learned1);
  EXPECT_GT(learned1, learned2);
  EXPECT_GE(learned0, 5);  // exemplary stays E
  EXPECT_LE(learned2, 2);  // hostile drops to A/B
}

TEST(ClosedLoop, AdaptationReducesResidualExposure) {
  const Scenario scenario = loop_scenario(rd_conduct());
  RoundConfig config = small_config(true);
  config.rounds = 10;
  const CampaignResult adaptive = run_campaign(scenario, config, 3);
  config.adaptive = false;
  const CampaignResult frozen = run_campaign(scenario, config, 3);
  // Identical first round (the table has not been refreshed yet).
  EXPECT_NEAR(adaptive.rounds[0].mean_residual_exposure,
              frozen.rounds[0].mean_residual_exposure, 1e-9);
  // From the back half of the run, adaptive residual exposure must sit far
  // below frozen.
  double adaptive_tail = 0.0;
  double frozen_tail = 0.0;
  for (std::size_t i = 5; i < 10; ++i) {
    adaptive_tail += adaptive.rounds[i].mean_residual_exposure;
    frozen_tail += frozen.rounds[i].mean_residual_exposure;
  }
  EXPECT_LT(adaptive_tail, 0.4 * frozen_tail);
}

TEST(ClosedLoop, ResidualExposureIsNonNegative) {
  const CampaignResult result =
      run_campaign(loop_scenario(rd_conduct()), small_config(true), 4);
  for (const CampaignRoundMetrics& round : result.rounds) {
    EXPECT_GE(round.mean_residual_exposure, 0.0);
    EXPECT_GE(round.misplaced_sensitive_fraction, 0.0);
    EXPECT_LE(round.misplaced_sensitive_fraction, 1.0);
  }
}

TEST(ClosedLoop, DeterministicForSeed) {
  const Scenario scenario = loop_scenario(rd_conduct());
  RoundConfig config = small_config(true);
  config.replica_staleness_rounds = 2;
  const CampaignResult a = run_campaign(scenario, config, 9);
  const CampaignResult b = run_campaign(scenario, config, 9);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].makespan, b.rounds[i].makespan);
    EXPECT_EQ(a.rounds[i].mean_residual_exposure,
              b.rounds[i].mean_residual_exposure);
  }
}

TEST(ClosedLoop, BatchModeWorksInTheLoop) {
  const Scenario scenario = three_rd_grid()
                                .batch()
                                .heuristic("sufferage")
                                .with_adversaries(rd_conduct())
                                .build();
  const RoundConfig config = small_config(true);
  const CampaignResult result = run_campaign(scenario, config, 5);
  EXPECT_EQ(result.rounds.size(), config.rounds);
  EXPECT_GT(result.transactions, 0u);
}

TEST(ClosedLoop, ReplicaStalenessDelaysButDoesNotPreventAdaptation) {
  const Scenario scenario = loop_scenario(rd_conduct());
  RoundConfig config = small_config(true);
  config.rounds = 12;
  const CampaignResult fresh = run_campaign(scenario, config, 8);
  config.replica_staleness_rounds = 4;
  const CampaignResult stale = run_campaign(scenario, config, 8);
  // Early rounds: the stale replica still shows the optimistic prior, so
  // uncovered exposure stays high while the fresh reader has adapted.
  double fresh_early = 0.0;
  double stale_early = 0.0;
  for (std::size_t i = 1; i < 4; ++i) {
    fresh_early += fresh.rounds[i].mean_residual_exposure;
    stale_early += stale.rounds[i].mean_residual_exposure;
  }
  EXPECT_LT(fresh_early, stale_early);
  // Late rounds: both have converged.
  EXPECT_LT(stale.rounds.back().mean_residual_exposure, 0.3);
}

TEST(ClosedLoop, CompromiseSpikesExposureAndRecovers) {
  // rd0 behaves at 5.6 for six rounds, then is compromised (1.4) to the end.
  chaos::AdversarySpec compromised;
  compromised.domain = 0;
  compromised.kind = chaos::BehaviorKind::kOscillating;
  compromised.honest_mean = 5.6;
  compromised.malicious_mean = 1.4;
  compromised.rounds_on = 6;
  compromised.rounds_off = 8;
  RoundConfig config = small_config(true);
  config.rounds = 14;
  config.tasks_per_round = 50;
  config.engine.learning_rate = 0.5;
  const CampaignResult run = run_campaign(
      loop_scenario({compromised, chaos::fixed_conduct(1, 4.5),
                     chaos::fixed_conduct(2, 4.5)}),
      config, 11);
  // Pre-compromise steady state is near zero; the compromise round spikes;
  // the tail recovers as the agents re-learn.
  const double before = run.rounds[5].mean_residual_exposure;
  const double spike = run.rounds[6].mean_residual_exposure;
  const double after = run.rounds[13].mean_residual_exposure;
  EXPECT_GT(spike, before + 0.3);
  EXPECT_LT(after, spike * 0.5);
  // The learned table reflects the compromise.
  EXPECT_LE(trust::to_numeric(run.final_table.get(0, 0, 0)), 2);
}

TEST(ClosedLoop, BetaMaintainerAlsoLearnsWithoutCollusion) {
  RoundConfig config = small_config(true);
  config.rounds = 10;
  const CampaignResult result =
      run_campaign(loop_scenario(rd_conduct(), "beta"), config, 12);
  // The pooled table still learns the conduct ordering honestly.
  EXPECT_GT(trust::to_numeric(result.final_table.get(0, 0, 0)),
            trust::to_numeric(result.final_table.get(0, 2, 0)));
  EXPECT_LT(result.rounds.back().mean_residual_exposure, 0.35);
  EXPECT_GT(result.transactions, 0u);
}

TEST(ClosedLoop, CollusionPoisonsBetaButNotGammaForHonestDomains) {
  // rd2 is hostile and cd1 its ally: cd1 ballot-stuffs rd2 (and badmouths
  // the other resource domains).
  chaos::AdversarySpec hostile;
  hostile.domain = 2;
  hostile.kind = chaos::BehaviorKind::kCollusive;
  hostile.malicious_mean = 1.6;
  chaos::AdversarySpec ally;
  ally.side = chaos::AdversarySide::kClientDomain;
  ally.domain = 1;
  ally.kind = chaos::BehaviorKind::kCollusive;
  const std::vector<chaos::AdversarySpec> domains = {
      chaos::fixed_conduct(0, 5.6), chaos::fixed_conduct(1, 4.4), hostile,
      ally};
  const auto run_with = [&](const std::string& backend) {
    RoundConfig config = small_config(true);
    config.rounds = 12;
    config.tasks_per_round = 60;
    config.engine.alliance_discount = 0.1;
    return run_campaign(loop_scenario(domains, backend), config, 13);
  };
  const CampaignResult gamma = run_with("gamma");
  const CampaignResult beta = run_with("beta");
  // Honest cd0's view of the hostile rd2: Γ learns the truth; the pooled
  // Beta view is inflated by the colluder.
  EXPECT_LT(trust::to_numeric(gamma.final_table.get(0, 2, 0)),
            trust::to_numeric(beta.final_table.get(0, 2, 0)));
  // Honest-domain exposure in the tail: Γ below Beta.
  double gamma_tail = 0.0;
  double beta_tail = 0.0;
  for (std::size_t i = 8; i < 12; ++i) {
    gamma_tail += gamma.rounds[i].mean_residual_exposure_honest;
    beta_tail += beta.rounds[i].mean_residual_exposure_honest;
  }
  EXPECT_LT(gamma_tail, beta_tail);
}

TEST(ClosedLoop, HonestExposureEqualsTotalWithoutCollusion) {
  const CampaignResult result =
      run_campaign(loop_scenario(rd_conduct()), small_config(true), 14);
  for (const CampaignRoundMetrics& round : result.rounds) {
    EXPECT_NEAR(round.mean_residual_exposure,
                round.mean_residual_exposure_honest, 1e-12);
  }
}

TEST(ClosedLoop, ConductChangeValidation) {
  // A compromise is an oscillating spec; it must name a resource domain of
  // the drawn grid, stay on the trust scale, and last at least one round.
  chaos::AdversarySpec change;
  change.kind = chaos::BehaviorKind::kOscillating;
  change.malicious_mean = 3.0;
  change.rounds_on = 2;
  change.rounds_off = 6;
  chaos::AdversarySpec unknown_rd = change;
  unknown_rd.domain = 9;
  EXPECT_THROW(run_campaign(loop_scenario({unknown_rd}), small_config(true), 1),
               PreconditionError);
  chaos::AdversarySpec off_scale = change;
  off_scale.malicious_mean = 9.0;
  EXPECT_THROW(run_campaign(loop_scenario({off_scale}), small_config(true), 1),
               PreconditionError);
  chaos::AdversarySpec no_phase = change;
  no_phase.rounds_off = 0;
  EXPECT_THROW(run_campaign(loop_scenario({no_phase}), small_config(true), 1),
               PreconditionError);
}

TEST(ClosedLoop, CollusionPairValidation) {
  chaos::AdversarySpec ally;
  ally.side = chaos::AdversarySide::kClientDomain;
  ally.domain = 9;
  ally.kind = chaos::BehaviorKind::kCollusive;
  EXPECT_THROW(run_campaign(loop_scenario({ally}), small_config(true), 1),
               PreconditionError);
}

TEST(ClosedLoop, Validation) {
  const Scenario scenario = loop_scenario(rd_conduct());
  RoundConfig bad = small_config(true);
  bad.rounds = 0;
  EXPECT_THROW(run_campaign(scenario, bad, 1), PreconditionError);
  bad = small_config(true);
  bad.initial_level = trust::TrustLevel::kF;
  EXPECT_THROW(run_campaign(scenario, bad, 1), PreconditionError);
}

}  // namespace
}  // namespace gridtrust::sim
