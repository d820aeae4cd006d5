// Tests for the gridtrust::chaos subsystem: adversary behavior strategies,
// fault injection (static and DES-driven), the campaign driver's robustness
// metrics, and the determinism / clean-bit-identity contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "chaos/behavior.hpp"
#include "chaos/config.hpp"
#include "chaos/faults.hpp"
#include "common/error.hpp"
#include "des/simulator.hpp"
#include "lab/manifest.hpp"
#include "paired_sweep.hpp"
#include "report_text.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_builder.hpp"
#include "trust/trust_engine.hpp"

namespace gridtrust {
namespace {

// ---------------------------------------------------------------------------
// Hostile transaction histories against the trust engine (satellite: the
// engine-level view of oscillating and whitewashing adversaries).

trust::TrustEngineConfig engine_config() {
  trust::TrustEngineConfig config;
  config.learning_rate = 0.3;
  return config;
}

TEST(ChaosTrustEngine, OscillatingHistoryAccruesDistrustMonotonically) {
  // Entity 1 serves entity 0: three good rounds, then three bad, repeating.
  // During each malicious burst the direct level must fall monotonically,
  // and the score at the end of each burst must not exceed the score at the
  // end of the previous burst: averaging cannot launder an on-off attacker
  // back to a clean slate while the attacks continue.
  trust::TrustEngine engine(engine_config(), 2, 1);
  double time = 0.0;
  double previous_burst_end = 7.0;  // above any reachable level
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      engine.record_transaction({0, 1, 0, time, 5.5});
      time += 1.0;
    }
    double last = engine.direct_record(0, 1, 0)->level;
    for (int i = 0; i < 3; ++i) {
      engine.record_transaction({0, 1, 0, time, 1.5});
      time += 1.0;
      const double now = engine.direct_record(0, 1, 0)->level;
      EXPECT_LT(now, last) << "distrust must accrue within a burst";
      last = now;
    }
    EXPECT_LE(last, previous_burst_end + 1e-12)
        << "burst-end level must not recover across cycles";
    previous_burst_end = last;
  }
  // After four attack cycles the EWMA sits well below the honest mean.
  EXPECT_LT(engine.direct_record(0, 1, 0)->level, 4.0);
}

TEST(ChaosTrustEngine, RecoveryAfterMisbehaviorIsDecayBounded) {
  // A domain that misbehaved and then turns honest recovers, but each
  // honest observation moves the level by at most learning_rate times the
  // remaining gap — no single good transaction can whitewash history.
  trust::TrustEngine engine(engine_config(), 2, 1);
  double time = 0.0;
  for (int i = 0; i < 6; ++i) {
    engine.record_transaction({0, 1, 0, time, 1.5});
    time += 1.0;
  }
  const double rate = engine.config().learning_rate;
  double level = engine.direct_record(0, 1, 0)->level;
  for (int i = 0; i < 10; ++i) {
    engine.record_transaction({0, 1, 0, time, 6.0});
    time += 1.0;
    const double now = engine.direct_record(0, 1, 0)->level;
    EXPECT_GT(now, level);
    EXPECT_LE(now, level + rate * (6.0 - level) + 1e-12)
        << "recovery step exceeds the EWMA bound";
    level = now;
  }
  EXPECT_LT(level, 6.0);
}

TEST(ChaosTrustEngine, ForgetErasesBothDirectionsAndKeepsHistoryCount) {
  trust::TrustEngine engine(engine_config(), 3, 1);
  engine.record_transaction({0, 1, 0, 0.0, 2.0});
  engine.record_transaction({1, 0, 0, 0.0, 3.0});
  engine.record_transaction({0, 2, 0, 0.0, 5.0});
  const std::uint64_t before = engine.transaction_count();
  EXPECT_EQ(engine.forget(1), 2u);
  EXPECT_FALSE(engine.direct_record(0, 1, 0).has_value());
  EXPECT_FALSE(engine.direct_record(1, 0, 0).has_value());
  EXPECT_TRUE(engine.direct_record(0, 2, 0).has_value());
  EXPECT_EQ(engine.transaction_count(), before);
  // A fresh identity starts from scratch: earlier timestamps are legal again.
  engine.record_transaction({0, 1, 0, 0.0, 6.0});
  EXPECT_DOUBLE_EQ(engine.direct_record(0, 1, 0)->level, 6.0);
}

// ---------------------------------------------------------------------------
// Behavior engine.

TEST(ChaosBehavior, OscillatingPhasesFollowTheConfiguredPeriod) {
  chaos::AdversarySpec spec;
  spec.kind = chaos::BehaviorKind::kOscillating;
  spec.domain = 1;
  spec.rounds_on = 2;
  spec.rounds_off = 3;
  const chaos::BehaviorEngine engine({spec}, 3, 2);
  // Rounds 0-1 honest, 2-4 malicious, then repeat.
  for (const std::size_t round : {0u, 1u, 5u, 6u, 10u}) {
    EXPECT_FALSE(engine.rd_misbehaving(1, round)) << "round " << round;
    EXPECT_DOUBLE_EQ(engine.rd_conduct_mean(1, round, 5.0), spec.honest_mean);
  }
  for (const std::size_t round : {2u, 3u, 4u, 7u, 8u, 9u}) {
    EXPECT_TRUE(engine.rd_misbehaving(1, round)) << "round " << round;
    EXPECT_DOUBLE_EQ(engine.rd_conduct_mean(1, round, 5.0),
                     spec.malicious_mean);
  }
  // Unspec'd domains use the fallback and never misbehave.
  EXPECT_DOUBLE_EQ(engine.rd_conduct_mean(0, 3, 5.0), 5.0);
  EXPECT_FALSE(engine.rd_misbehaving(0, 3));
  EXPECT_TRUE(engine.adversarial_rd(1));
  EXPECT_FALSE(engine.adversarial_rd(0));
}

TEST(ChaosBehavior, CollusiveAllianceForgesBothDirections) {
  chaos::AdversarySpec rd_spec;
  rd_spec.side = chaos::AdversarySide::kResourceDomain;
  rd_spec.domain = 0;
  rd_spec.kind = chaos::BehaviorKind::kCollusive;
  rd_spec.alliance = 7;
  chaos::AdversarySpec cd_spec;
  cd_spec.side = chaos::AdversarySide::kClientDomain;
  cd_spec.domain = 1;
  cd_spec.kind = chaos::BehaviorKind::kCollusive;
  cd_spec.alliance = 7;
  const chaos::BehaviorEngine engine({rd_spec, cd_spec}, 2, 2);
  // Ally: ballot-stuffed 6.0.  Outsider RD: badmouthed 1.0.
  ASSERT_TRUE(engine.forged_report(1, 0).has_value());
  EXPECT_DOUBLE_EQ(*engine.forged_report(1, 0), 6.0);
  ASSERT_TRUE(engine.forged_report(1, 1).has_value());
  EXPECT_DOUBLE_EQ(*engine.forged_report(1, 1), 1.0);
  // Honest CDs report honestly.
  EXPECT_FALSE(engine.forged_report(0, 0).has_value());
  // The collusive CD's own conduct stays at the fallback (its attack is the
  // report, not the conduct).
  EXPECT_DOUBLE_EQ(engine.cd_conduct_mean(1, 0, 5.2), 5.2);
  const auto pairs = engine.collusive_pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<std::size_t, std::size_t>{1, 0}));
}

TEST(ChaosBehavior, WhitewashTriggersOnlyBelowThreshold) {
  chaos::AdversarySpec spec;
  spec.kind = chaos::BehaviorKind::kWhitewashing;
  spec.domain = 0;
  spec.whitewash_threshold = 2.5;
  const chaos::BehaviorEngine engine({spec}, 1, 1);
  EXPECT_FALSE(engine.should_whitewash(0, 3.0));
  EXPECT_TRUE(engine.should_whitewash(0, 2.5));
  EXPECT_TRUE(engine.should_whitewash(0, 1.2));
}

TEST(ChaosBehavior, SpecValidationRejectsBadParameters) {
  chaos::AdversarySpec off_scale;
  off_scale.malicious_mean = 0.5;
  EXPECT_THROW(chaos::validate_spec(off_scale), PreconditionError);
  chaos::AdversarySpec zero_phase;
  zero_phase.kind = chaos::BehaviorKind::kOscillating;
  zero_phase.rounds_on = 0;
  EXPECT_THROW(chaos::validate_spec(zero_phase), PreconditionError);
  chaos::AdversarySpec cd_oscillating;
  cd_oscillating.side = chaos::AdversarySide::kClientDomain;
  cd_oscillating.kind = chaos::BehaviorKind::kOscillating;
  EXPECT_THROW(chaos::validate_spec(cd_oscillating), PreconditionError);
  chaos::AdversarySpec out_of_grid;
  out_of_grid.domain = 5;
  EXPECT_THROW(chaos::BehaviorEngine({out_of_grid}, 3, 3), PreconditionError);
  chaos::AdversarySpec dup;
  dup.domain = 0;
  EXPECT_THROW(chaos::BehaviorEngine({dup, dup}, 3, 3), PreconditionError);
}

// ---------------------------------------------------------------------------
// Fault timeline and DES-driven injector.

TEST(ChaosFaults, TimelineWindowsAreHalfOpen) {
  chaos::FaultSpec crash;
  crash.kind = chaos::FaultKind::kMachineCrash;
  crash.target = 1;
  crash.at = 10.0;
  crash.duration = 5.0;
  chaos::FaultSpec slow;
  slow.kind = chaos::FaultKind::kMachineSlowdown;
  slow.target = chaos::kAllTargets;
  slow.at = 12.0;
  slow.duration = 2.0;
  slow.magnitude = 3.0;
  const chaos::FaultTimeline timeline({crash, slow});
  // One request per probe time: a crash adds the penalty (100) and a
  // slowdown triples the unit cost of the cells its window covers.
  const std::vector<double> arrivals = {9.9, 10.0, 14.9, 15.0, 12.0, 13.0,
                                        14.0};
  sched::CostMatrix eec(arrivals.size(), 2, 1.0);
  chaos::apply_machine_faults(timeline, arrivals, eec, 100.0);
  EXPECT_DOUBLE_EQ(eec.get(0, 1), 1.0);    // machine 1 up at 9.9
  EXPECT_DOUBLE_EQ(eec.get(1, 1), 101.0);  // down at 10.0
  EXPECT_DOUBLE_EQ(eec.get(2, 1), 101.0);  // down at 14.9
  EXPECT_DOUBLE_EQ(eec.get(3, 1), 1.0);    // up again at 15.0
  EXPECT_DOUBLE_EQ(eec.get(4, 0), 3.0);  // crash targets machine 1 only
  EXPECT_DOUBLE_EQ(eec.get(5, 0), 3.0);  // slowed at 13.0
  EXPECT_DOUBLE_EQ(eec.get(6, 0), 1.0);  // the slowdown ended at 14.0
}

TEST(ChaosFaults, ApplyMachineFaultsPerturbsOnlyCoveredCells) {
  chaos::FaultSpec slow;
  slow.kind = chaos::FaultKind::kMachineSlowdown;
  slow.target = 0;
  slow.at = 0.0;
  slow.duration = 10.0;
  slow.magnitude = 2.0;
  const chaos::FaultTimeline timeline({slow});
  sched::CostMatrix eec(2, 2, 100.0);
  // Request 0 arrives inside the window, request 1 after it closed.
  const std::vector<double> arrivals = {5.0, 20.0};
  const chaos::FaultApplication out =
      chaos::apply_machine_faults(timeline, arrivals, eec, 1e6);
  EXPECT_DOUBLE_EQ(eec.get(0, 0), 200.0);
  EXPECT_DOUBLE_EQ(eec.get(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(eec.get(1, 0), 100.0);
  EXPECT_EQ(out.windows_applied, 1u);
  EXPECT_EQ(out.cells_perturbed, 1u);
}

TEST(ChaosFaults, CrashPenaltyMustBeFinite) {
  // An infinite penalty would turn a crashed cell's EEC into +inf, which
  // the ESC model prices as inf x 0 = NaN under a zero trust cost.
  const double inf = std::numeric_limits<double>::infinity();
  chaos::CampaignConfig config;
  config.crash_penalty = inf;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.crash_penalty = std::nan("");
  EXPECT_THROW(config.validate(), PreconditionError);
  const chaos::FaultTimeline timeline({});
  sched::CostMatrix eec(1, 1, 1.0);
  EXPECT_THROW(chaos::apply_machine_faults(timeline, {0.0}, eec, inf),
               PreconditionError);
}

TEST(ChaosFaults, InjectorTracksLiveStateThroughDesEvents) {
  chaos::FaultSpec crash;
  crash.kind = chaos::FaultKind::kMachineCrash;
  crash.target = 0;
  crash.at = 10.0;
  crash.duration = 10.0;
  chaos::FaultSpec drop;
  drop.kind = chaos::FaultKind::kReportDrop;
  drop.target = chaos::kAllTargets;
  drop.at = 15.0;
  drop.duration = 10.0;
  drop.magnitude = 0.5;
  chaos::FaultInjector injector({crash, drop}, 2);
  des::Simulator sim;
  EXPECT_EQ(injector.install(sim), 4u);
  // Probe events sample the live state between the fault events.
  int probes = 0;
  sim.schedule_at(5.0, [&] {
    ++probes;
    EXPECT_TRUE(injector.machine_up(0));
    EXPECT_EQ(injector.machines_down(), 0u);
  });
  sim.schedule_at(12.0, [&] {
    ++probes;
    EXPECT_FALSE(injector.machine_up(0));
    EXPECT_TRUE(injector.machine_up(1));
    EXPECT_EQ(injector.machines_down(), 1u);
    EXPECT_DOUBLE_EQ(injector.report_drop_probability(0), 0.0);
  });
  sim.schedule_at(16.0, [&] {
    ++probes;
    EXPECT_DOUBLE_EQ(injector.report_drop_probability(0), 0.5);
  });
  sim.schedule_at(30.0, [&] {
    ++probes;
    EXPECT_TRUE(injector.machine_up(0));
    EXPECT_DOUBLE_EQ(injector.report_drop_probability(0), 0.0);
  });
  sim.run();
  EXPECT_EQ(probes, 4);
  EXPECT_EQ(injector.faults_injected(), 2u);
}

TEST(ChaosFaults, SpecValidationRejectsBadParameters) {
  chaos::FaultSpec no_duration;
  EXPECT_THROW(chaos::validate_spec(no_duration), PreconditionError);
  chaos::FaultSpec weak_slowdown;
  weak_slowdown.duration = 1.0;
  weak_slowdown.magnitude = 0.9;
  EXPECT_THROW(chaos::validate_spec(weak_slowdown), PreconditionError);
  chaos::FaultSpec fractional_delay;
  fractional_delay.kind = chaos::FaultKind::kReportDelay;
  fractional_delay.duration = 1.0;
  fractional_delay.magnitude = 1.5;
  EXPECT_THROW(chaos::validate_spec(fractional_delay), PreconditionError);
  chaos::FaultSpec bad_target;
  bad_target.kind = chaos::FaultKind::kMachineCrash;
  bad_target.duration = 1.0;
  bad_target.target = 9;
  EXPECT_THROW(chaos::FaultInjector({bad_target}, 2), PreconditionError);
}

// ---------------------------------------------------------------------------
// Campaigns.

sim::Scenario campaign_scenario(std::vector<chaos::AdversarySpec> adversaries,
                                std::vector<chaos::FaultSpec> faults = {}) {
  sim::Scenario scenario = sim::ScenarioBuilder()
                               .machines(6)
                               .resource_domains(6, 6)
                               .client_domains(2, 2)
                               .heuristic("mct")
                               .with_adversaries(adversaries)
                               .build();
  scenario.chaos.faults = std::move(faults);  // FaultInjector validates them
  return scenario;
}

/// True when any chaos counter moved.
bool any_counter(const chaos::ChaosCounters& c) {
  return c.faults_injected != 0 || c.outcomes_flipped != 0 ||
         c.recommendations_forged != 0 || c.recommendations_dropped != 0 ||
         c.recommendations_delayed != 0 || c.whitewash_resets != 0;
}

sim::RoundConfig fast_campaign() {
  sim::RoundConfig config;
  config.rounds = 10;
  config.tasks_per_round = 24;
  return config;
}

TEST(ChaosCampaign, DetectsConsistentlyMaliciousDomains) {
  chaos::AdversarySpec spec;
  spec.kind = chaos::BehaviorKind::kMalicious;
  spec.domain = 0;
  const sim::CampaignResult result =
      sim::run_campaign(campaign_scenario({spec}), fast_campaign(), 11);
  EXPECT_GE(result.detection_latency_rounds, 1);
  EXPECT_DOUBLE_EQ(result.steady_misclassification, 0.0);
  EXPECT_GT(result.counters.outcomes_flipped, 0u);
  // The final table pins the adversary below the honest domains.
  double adversary_level = 0.0;
  double honest_level = 0.0;
  for (std::size_t cd = 0; cd < result.final_table.client_domains(); ++cd) {
    for (std::size_t act = 0; act < result.final_table.activities(); ++act) {
      adversary_level += trust::to_numeric(result.final_table.get(cd, 0, act));
      honest_level += trust::to_numeric(result.final_table.get(cd, 1, act));
    }
  }
  EXPECT_LT(adversary_level, honest_level);
}

TEST(ChaosCampaign, CleanCampaignDetectsImmediately) {
  const sim::CampaignResult result =
      sim::run_campaign(campaign_scenario({}), fast_campaign(), 11);
  EXPECT_EQ(result.detection_latency_rounds, 0);
  EXPECT_FALSE(any_counter(result.counters));
}

TEST(ChaosCampaign, WhitewashingResetsIdentityAndDelaysDetection) {
  chaos::AdversarySpec washer;
  washer.kind = chaos::BehaviorKind::kWhitewashing;
  washer.domain = 0;
  washer.whitewash_threshold = 2.5;
  sim::RoundConfig config = fast_campaign();
  config.rounds = 14;
  const sim::CampaignResult result =
      sim::run_campaign(campaign_scenario({washer}), config, 11);
  EXPECT_GT(result.counters.whitewash_resets, 0u);
  // Every reset un-detects the domain, so detection cannot settle while the
  // washer keeps cycling: latency is either never (-1) or later than the
  // last observed reset allows a malicious spec to manage.
  chaos::AdversarySpec fixed = washer;
  fixed.kind = chaos::BehaviorKind::kMalicious;
  const sim::CampaignResult baseline =
      sim::run_campaign(campaign_scenario({fixed}), config, 11);
  ASSERT_GE(baseline.detection_latency_rounds, 0);
  if (result.detection_latency_rounds >= 0) {
    EXPECT_GT(result.detection_latency_rounds,
              baseline.detection_latency_rounds);
  }
}

TEST(ChaosCampaign, ReportDropsStarveTheTableOfEvidence) {
  chaos::AdversarySpec spec;
  spec.kind = chaos::BehaviorKind::kMalicious;
  spec.domain = 0;
  chaos::FaultSpec drop;
  drop.kind = chaos::FaultKind::kReportDrop;
  drop.target = chaos::kAllTargets;
  drop.at = 0.0;
  drop.duration = 1e9;
  drop.magnitude = 1.0;
  const sim::CampaignResult dropped = sim::run_campaign(
      campaign_scenario({spec}, {drop}), fast_campaign(), 11);
  const sim::CampaignResult intact =
      sim::run_campaign(campaign_scenario({spec}), fast_campaign(), 11);
  EXPECT_GT(dropped.counters.recommendations_dropped, 0u);
  EXPECT_EQ(dropped.counters.faults_injected, 1u);
  // With every client-side report lost, the table learns strictly less.
  EXPECT_LT(dropped.transactions, intact.transactions);
}

TEST(ChaosCampaign, DelayedReportsArriveLate) {
  chaos::FaultSpec delay;
  delay.kind = chaos::FaultKind::kReportDelay;
  delay.target = chaos::kAllTargets;
  delay.at = 0.0;
  delay.duration = 1e9;
  delay.magnitude = 2.0;
  const sim::CampaignResult result = sim::run_campaign(
      campaign_scenario({}, {delay}), fast_campaign(), 11);
  EXPECT_GT(result.counters.recommendations_delayed, 0u);
  EXPECT_GT(result.transactions, 0u);
}

TEST(ChaosCampaign, CrashWindowsShowUpAsMachinesDown) {
  chaos::FaultSpec crash;
  crash.kind = chaos::FaultKind::kMachineCrash;
  crash.target = 0;
  crash.at = 60.0;   // covers round 1 (round period 60)
  crash.duration = 60.0;
  const sim::CampaignResult result = sim::run_campaign(
      campaign_scenario({}, {crash}), fast_campaign(), 11);
  ASSERT_GE(result.rounds.size(), 3u);
  EXPECT_EQ(result.rounds[0].machines_down, 0u);
  EXPECT_EQ(result.rounds[1].machines_down, 1u);
  EXPECT_EQ(result.rounds[2].machines_down, 0u);
  EXPECT_EQ(result.counters.faults_injected, 1u);
}

// Satellite: seed determinism — equal seeds give bit-identical RunReports,
// different seeds differ.
TEST(ChaosCampaign, SeedDeterminismRegression) {
  chaos::AdversarySpec spec;
  spec.kind = chaos::BehaviorKind::kOscillating;
  spec.domain = 0;
  const sim::Scenario scenario = campaign_scenario({spec});
  const sim::RoundConfig config = fast_campaign();
  using testing_support::report_text;
  const std::string a =
      report_text(sim::run_campaign(scenario, config, 99).report());
  const std::string b =
      report_text(sim::run_campaign(scenario, config, 99).report());
  const std::string c =
      report_text(sim::run_campaign(scenario, config, 100).report());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// Acceptance: an empty CampaignConfig leaves the static experiment path
// bit-identical to pre-chaos behaviour.
TEST(ChaosCampaign, EmptyConfigKeepsExperimentsBitIdentical) {
  sim::Scenario plain = sim::ScenarioBuilder().heuristic("mct").build();
  ASSERT_TRUE(plain.chaos.empty());
  sim::Scenario with_field = plain;
  with_field.chaos = chaos::CampaignConfig{};
  using testing_support::one_cell_paired_spec;
  const std::string a =
      lab::to_json(lab::run_sweep(one_cell_paired_spec(plain, 5, 7)).manifest);
  const std::string b = lab::to_json(
      lab::run_sweep(one_cell_paired_spec(with_field, 5, 7)).manifest);
  EXPECT_EQ(a, b);
}

TEST(ChaosStaticPath, MachineFaultsRaiseUnawareCosts) {
  // A permanent slowdown on every machine must show up in the drawn
  // instance's costs and in the comparison's fault accounting.
  chaos::FaultSpec slow;
  slow.kind = chaos::FaultKind::kMachineSlowdown;
  slow.target = chaos::kAllTargets;
  slow.at = 0.0;
  slow.duration = 1e9;
  slow.magnitude = 2.0;
  const sim::Scenario clean = sim::ScenarioBuilder().heuristic("mct").build();
  sim::Scenario faulty = clean;
  faulty.chaos.faults = {slow};
  const lab::AggregateSet clean_run =
      testing_support::run_paired_cell(clean, 5, 7);
  const lab::AggregateSet faulty_run =
      testing_support::run_paired_cell(faulty, 5, 7);
  // The chaos.* keys surface in the report only for chaos scenarios.
  EXPECT_THROW((void)clean_run.get("chaos.faults_injected"),
               PreconditionError);
  const lab::MetricAggregate faults = faulty_run.get("chaos.faults_injected");
  EXPECT_DOUBLE_EQ(faults.mean * static_cast<double>(faults.n),
                   5.0);  // one window x 5 reps
  EXPECT_GT(faulty_run.mean("aware.makespan"),
            clean_run.mean("aware.makespan"));
}

TEST(ChaosConfig, CountersAggregateAndReport) {
  chaos::ChaosCounters a;
  a.faults_injected = 3;
  a.recommendations_forged = 3;
  a.whitewash_resets = 4;
  obs::RunReport report;
  a.to_report(report);
  EXPECT_DOUBLE_EQ(report.get("chaos.faults_injected"), 3.0);
  EXPECT_DOUBLE_EQ(report.get("chaos.recommendations_forged"), 3.0);
  EXPECT_DOUBLE_EQ(report.get("chaos.recommendations_dropped"), 0.0);
  EXPECT_DOUBLE_EQ(report.get("chaos.whitewash_resets"), 4.0);
}

TEST(ChaosBuilder, BuildValidatesChaosConfig) {
  chaos::AdversarySpec bad;
  bad.malicious_mean = 0.0;
  EXPECT_THROW(
      sim::ScenarioBuilder().heuristic("mct").with_adversaries({bad}).build(),
      PreconditionError);
  chaos::AdversarySpec ok;
  ok.kind = chaos::BehaviorKind::kMalicious;
  const sim::Scenario s =
      sim::ScenarioBuilder().heuristic("mct").with_adversaries({ok}).build();
  EXPECT_EQ(s.chaos.adversaries.size(), 1u);
  EXPECT_FALSE(s.chaos.empty());
}

}  // namespace
}  // namespace gridtrust
