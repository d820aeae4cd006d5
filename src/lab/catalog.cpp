#include "lab/catalog.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/problem.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_builder.hpp"
#include "sim/trm_simulation.hpp"

namespace gridtrust::lab {

void finalize_paired(const Cell& /*cell*/, AggregateSet& aggregate) {
  const MetricAggregate diff = aggregate.get("makespan_diff");
  const double base = aggregate.mean("unaware.makespan");
  aggregate.set_derived("improvement_pct",
                        base > 0.0 ? diff.mean / base * 100.0 : 0.0);
  aggregate.set_derived("significant",
                        std::fabs(diff.mean) > diff.ci95 ? 1.0 : 0.0);
}

namespace {

SweepSpec paper_table_spec(const std::string& number,
                           const std::string& heuristic, bool batch,
                           bool consistent, const std::string& paper_numbers) {
  SweepSpec spec;
  spec.name = "table" + number;
  spec.title = "Table " + number + ": " + heuristic + ", " +
               (consistent ? "consistent" : "inconsistent") +
               " LoLo, trust-aware vs trust-unaware";
  spec.paper_ref = "Table " + number + " (§5.3)";
  spec.expected = "trust-aware wins both task counts significantly; paper "
                  "improvements " + paper_numbers;
  spec.axes = {{"tasks", {50, 100}}};
  spec.replications = 50;
  spec.run = [heuristic, batch, consistent](const Cell& cell,
                                            std::uint64_t rep_seed) {
    sim::ScenarioBuilder builder;
    builder.tasks(static_cast<std::size_t>(cell.number("tasks")))
        .heuristic(heuristic);
    if (batch) {
      builder.batch(30.0);
    } else {
      builder.immediate();
    }
    if (consistent) {
      builder.consistent();
    } else {
      builder.inconsistent();
    }
    return sim::run_paired(builder.build(), rep_seed);
  };
  spec.finalize = finalize_paired;
  spec.display_metrics = {"unaware.makespan", "aware.makespan",
                          "improvement_pct", "significant"};
  return spec;
}

SweepSpec chaos_robustness_spec() {
  SweepSpec spec;
  spec.name = "chaos_robustness";
  spec.title = "Trust robustness under adversarial machine fractions";
  spec.paper_ref = "robustness extension of Tables 4-9 (docs/adversaries.md)";
  spec.expected = "the trust-aware arm's steady true trust cost degrades "
                  "strictly less than the unaware arm's at every non-zero "
                  "malicious fraction";
  spec.axes = {{"heuristic", {"mct", "min-min", "sufferage"}},
               {"malicious_pct", {0, 10, 20, 40}},
               {"trust_aware", {0, 1}}};
  spec.replications = 3;  // independent campaigns averaged per cell
  spec.tolerance_pct = 2.0;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    const std::size_t n_rd = 10;  // one machine per RD: RD fraction ==
                                  // machine fraction
    const std::string& heuristic = cell.text("heuristic");
    const bool batch = heuristic != "mct";
    const auto pct = static_cast<std::size_t>(cell.number("malicious_pct"));

    sim::ScenarioBuilder builder;
    builder.machines(n_rd)
        .resource_domains(n_rd, n_rd)
        .client_domains(3, 3)
        .heuristic(heuristic)
        .inconsistent();
    if (batch) builder.batch(30.0);
    std::vector<chaos::AdversarySpec> adversaries;
    if (pct > 0) {
      const std::size_t n_mal =
          std::max<std::size_t>(1, (pct * n_rd + 50) / 100);
      for (std::size_t rd = 0; rd < n_mal; ++rd) {
        chaos::AdversarySpec adversary;
        adversary.side = chaos::AdversarySide::kResourceDomain;
        adversary.domain = rd;
        adversary.kind = chaos::BehaviorKind::kMalicious;
        adversaries.push_back(adversary);
      }
    }
    sim::RoundConfig config;
    config.rounds = 12;
    config.tasks_per_round = 40;
    config.trust_aware = cell.number("trust_aware") != 0.0;
    const sim::CampaignResult result =
        sim::run_campaign(builder.with_adversaries(adversaries).build(),
                          config, rep_seed);
    obs::RunReport report;
    report.set("steady_true_trust_cost", result.steady_true_trust_cost);
    report.set("steady_makespan", result.steady_makespan);
    report.set("steady_misclassification", result.steady_misclassification);
    report.set("detection_latency_rounds",
               static_cast<double>(result.detection_latency_rounds));
    return report;
  };
  spec.display_metrics = {"steady_true_trust_cost", "steady_makespan",
                          "detection_latency_rounds"};
  return spec;
}

SweepSpec pricing_ablation_spec(bool sweep_weight) {
  SweepSpec spec;
  spec.name = sweep_weight ? "ablation_trust_weight" : "ablation_blanket";
  spec.title = sweep_weight
                   ? "ESC pricing ablation: TC weight sweep (blanket 50%)"
                   : "ESC pricing ablation: blanket sweep (TC weight 15%)";
  spec.paper_ref = "§4 ESC model (the paper picks weight 15 / blanket 50 "
                   "\"arbitrarily\")";
  spec.expected = sweep_weight
                      ? "heavier TC pricing erodes the trust-aware advantage"
                      : "a cheaper blanket erodes it from the other side; "
                        "blanket 10% makes the unaware baseline win";
  if (sweep_weight) {
    spec.axes = {{"tc_weight", {0, 5, 10, 15, 20, 25, 30}}};
  } else {
    spec.axes = {{"blanket", {10, 25, 50, 75, 100}}};
  }
  spec.replications = 50;
  spec.run = [sweep_weight](const Cell& cell, std::uint64_t rep_seed) {
    sim::Scenario scenario =
        sim::ScenarioBuilder().tasks(50).heuristic("mct").immediate()
            .inconsistent()
            .build();
    if (sweep_weight) {
      scenario.security.tc_weight_pct = cell.number("tc_weight");
    } else {
      scenario.security.blanket_pct = cell.number("blanket");
    }
    return sim::run_paired(scenario, rep_seed);
  };
  spec.finalize = finalize_paired;
  spec.display_metrics = {"improvement_pct", "significant"};
  return spec;
}

SweepSpec batch_interval_spec() {
  SweepSpec spec;
  spec.name = "ablation_batch_interval";
  spec.title = "Meta-request interval sweep (inconsistent LoLo, 100 tasks)";
  spec.paper_ref = "§4.1 batch mode (the paper fixes the interval at 30 s)";
  spec.expected = "long intervals trade flow time for marginal makespan "
                  "movement";
  spec.axes = {{"heuristic", {"min-min", "sufferage"}},
               {"interval", {5, 15, 30, 60, 120}}};
  spec.replications = 50;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    const sim::Scenario scenario = sim::ScenarioBuilder()
                                       .tasks(100)
                                       .heuristic(cell.text("heuristic"))
                                       .batch(cell.number("interval"))
                                       .inconsistent()
                                       .build();
    return sim::run_paired(scenario, rep_seed);
  };
  spec.finalize = finalize_paired;
  spec.display_metrics = {"aware.batches", "aware.makespan",
                          "aware.mean_flow_time", "improvement_pct"};
  return spec;
}

/// The tournament's adversary campaigns, keyed by axis value.  Each maps a
/// named attack onto the BehaviorEngine strategies of chaos/behavior.hpp.
std::vector<chaos::AdversarySpec> tournament_adversaries(
    const std::string& attack) {
  std::vector<chaos::AdversarySpec> out;
  const auto rd_adversary = [&](std::size_t rd, chaos::BehaviorKind kind) {
    chaos::AdversarySpec spec;
    spec.side = chaos::AdversarySide::kResourceDomain;
    spec.domain = rd;
    spec.kind = kind;
    out.push_back(spec);
  };
  if (attack == "ballot_stuffing") {
    // Two collusive RDs plus an allied collusive CD that ballot-stuffs
    // them (6.0) and badmouths every outsider through the report channel.
    rd_adversary(0, chaos::BehaviorKind::kCollusive);
    rd_adversary(1, chaos::BehaviorKind::kCollusive);
    chaos::AdversarySpec cd;
    cd.side = chaos::AdversarySide::kClientDomain;
    cd.domain = 0;
    cd.kind = chaos::BehaviorKind::kCollusive;
    out.push_back(cd);
  } else if (attack == "badmouthing") {
    // A lone collusive CD with no allied RD: every report it files is a
    // 1.0 badmouth of an honest resource domain.
    chaos::AdversarySpec cd;
    cd.side = chaos::AdversarySide::kClientDomain;
    cd.domain = 0;
    cd.kind = chaos::BehaviorKind::kCollusive;
    out.push_back(cd);
  } else if (attack == "oscillating") {
    rd_adversary(0, chaos::BehaviorKind::kOscillating);
    rd_adversary(1, chaos::BehaviorKind::kOscillating);
  } else if (attack == "whitewashing") {
    rd_adversary(0, chaos::BehaviorKind::kWhitewashing);
    rd_adversary(1, chaos::BehaviorKind::kWhitewashing);
  } else {
    GT_REQUIRE(false, "unknown tournament adversary: " + attack);
  }
  return out;
}

/// One tournament campaign: fixed topology, the named backend forming
/// trust, the named attack running against it.
obs::RunReport tournament_campaign(const std::string& backend,
                                   const std::string& attack,
                                   std::size_t rounds,
                                   std::size_t tasks_per_round,
                                   std::uint64_t rep_seed) {
  const std::size_t n_rd = 6;  // one machine per RD
  sim::ScenarioBuilder builder;
  builder.machines(n_rd)
      .resource_domains(n_rd, n_rd)
      .client_domains(3, 3)
      .heuristic("mct")
      .inconsistent()
      .with_reputation_backend(backend)
      .with_adversaries(tournament_adversaries(attack));
  sim::RoundConfig config;
  config.rounds = rounds;
  config.tasks_per_round = tasks_per_round;
  return sim::run_campaign(builder.build(), config, rep_seed).report();
}

SweepSpec backend_tournament_spec() {
  SweepSpec spec;
  spec.name = "backend_tournament";
  spec.title = "Reputation backends vs adversary campaigns";
  spec.paper_ref = "backend catalog and leaderboard "
                   "(docs/reputation-backends.md)";
  spec.expected = "gamma resists ballot-stuffing via R; purge:gamma "
                  "additionally blunts badmouthing; no backend beats "
                  "whitewashing without a registration cost";
  spec.axes = {{"backend", {"gamma", "beta", "fuzzy", "purge:gamma"}},
               {"adversary", {"ballot_stuffing", "badmouthing", "oscillating",
                              "whitewashing"}}};
  spec.replications = 3;  // independent campaigns averaged per cell
  spec.tolerance_pct = 2.0;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    return tournament_campaign(cell.text("backend"), cell.text("adversary"),
                               /*rounds=*/12, /*tasks_per_round=*/40,
                               rep_seed);
  };
  spec.display_metrics = {"detection_latency_rounds",
                          "steady_misclassification",
                          "steady_true_trust_cost"};
  return spec;
}

SweepSpec smoke_backends_spec() {
  SweepSpec spec;
  spec.name = "smoke_backends";
  spec.title = "CI smoke sweep: two backends vs one adversary";
  spec.paper_ref = "backend_tournament, shrunk for CI "
                   "(baselines/smoke_backends.json)";
  spec.expected = "both backends run the badmouthing campaign; gated "
                  "against the committed baseline";
  spec.axes = {{"backend", {"gamma", "purge:gamma"}},
               {"adversary", {"badmouthing"}}};
  spec.replications = 2;
  spec.tolerance_pct = 2.5;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    return tournament_campaign(cell.text("backend"), cell.text("adversary"),
                               /*rounds=*/8, /*tasks_per_round=*/20,
                               rep_seed);
  };
  spec.display_metrics = {"detection_latency_rounds",
                          "steady_misclassification",
                          "steady_true_trust_cost"};
  return spec;
}

/// One market campaign: fixed topology, the named price model and
/// mechanism clearing the market, optionally with the ballot-stuffing
/// cartel from the backend tournament manipulating the trust signal the
/// trust-weighted model prices on.
obs::RunReport market_campaign(const std::string& pricing,
                               const std::string& mechanism, bool trust_aware,
                               bool cartel, std::size_t rounds,
                               std::size_t tasks_per_round,
                               std::uint64_t rep_seed) {
  const std::size_t n_rd = 6;  // one machine per RD
  econ::EconomyConfig economy;
  economy.pricing = pricing;
  economy.mechanism = mechanism;
  sim::ScenarioBuilder builder;
  builder.machines(n_rd)
      .resource_domains(n_rd, n_rd)
      .client_domains(3, 3)
      .heuristic("mct")
      .inconsistent()
      .with_economy(economy);
  if (cartel) {
    builder.with_adversaries(tournament_adversaries("ballot_stuffing"));
  }
  sim::RoundConfig config;
  config.rounds = rounds;
  config.tasks_per_round = tasks_per_round;
  config.trust_aware = trust_aware;
  return sim::run_market_campaign(builder.build(), config, rep_seed)
      .report();
}

SweepSpec market_tournament_spec() {
  SweepSpec spec;
  spec.name = "market_tournament";
  spec.title = "Grid economy tournament: price models x mechanisms x trust";
  spec.paper_ref = "economic extension of §4's ESC pricing (docs/economy.md)";
  spec.expected = "trust-aware arms overrun budgets less than unaware ones; "
                  "the cartel lifts its own price index under trust pricing "
                  "until detection claws the premium back";
  spec.axes = {{"pricing", {"flat", "commodity", "trust"}},
               {"mechanism", {"posted-cost", "posted-time", "auction"}},
               {"trust_aware", {0, 1}},
               {"cartel", {0, 1}}};
  spec.replications = 2;  // independent campaigns averaged per cell
  spec.tolerance_pct = 2.0;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    return market_campaign(cell.text("pricing"), cell.text("mechanism"),
                           cell.number("trust_aware") != 0.0,
                           cell.number("cartel") != 0.0,
                           /*rounds=*/10, /*tasks_per_round=*/30, rep_seed);
  };
  spec.display_metrics = {"served_fraction", "budget_overrun_rate",
                          "steady_price_index", "steady_adversary_premium",
                          "steady_welfare"};
  return spec;
}

SweepSpec smoke_econ_spec() {
  SweepSpec spec;
  spec.name = "smoke_econ";
  spec.title = "CI smoke sweep: trust-weighted market, cartel on/off";
  spec.paper_ref = "market_tournament, shrunk for CI "
                   "(baselines/smoke_econ.json)";
  spec.expected = "both mechanisms clear the trust-priced market with and "
                  "without the cartel; gated against the committed baseline";
  spec.axes = {{"mechanism", {"posted-cost", "auction"}}, {"cartel", {0, 1}}};
  spec.replications = 2;
  spec.tolerance_pct = 2.5;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    return market_campaign("trust", cell.text("mechanism"),
                           /*trust_aware=*/true,
                           cell.number("cartel") != 0.0,
                           /*rounds=*/6, /*tasks_per_round=*/16, rep_seed);
  };
  spec.display_metrics = {"served_fraction", "budget_overrun_rate",
                          "steady_price_index", "steady_adversary_premium"};
  return spec;
}

SweepSpec deadlines_spec() {
  SweepSpec spec;
  spec.name = "deadlines";
  spec.title = "Deadline miss rates, trust-aware vs unaware (MCT, "
               "inconsistent LoLo, 100 tasks)";
  spec.paper_ref = "QoS extension of Tables 4-9 (deadline = arrival + "
                   "slack x best EEC)";
  spec.expected = "the security-overhead reduction converts into met "
                  "deadlines at every slack band";
  // Band [lo, 2 x lo] reproduces bench_deadlines' {4,8} {8,16} {16,32}
  // {32,64} slack ranges as a single numeric axis.
  spec.axes = {{"slack_lo", {4, 8, 16, 32}}};
  spec.replications = 25;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    const double lo = cell.number("slack_lo");
    const sim::Scenario scenario = sim::ScenarioBuilder()
                                       .tasks(100)
                                       .heuristic("mct")
                                       .immediate()
                                       .inconsistent()
                                       .build();
    Rng rng(rep_seed);
    const sim::Instance instance =
        sim::draw_instance(scenario, sched::trust_unaware_policy(), rng);
    // Deadlines come from the same per-replication stream, after the
    // instance draws, so both policies see identical deadlines.
    sched::CostMatrix eec(instance.problem.num_requests(),
                          instance.problem.num_machines());
    for (std::size_t r = 0; r < eec.rows(); ++r) {
      for (std::size_t m = 0; m < eec.cols(); ++m) {
        eec.at(r, m) = instance.problem.eec(r, m);
      }
    }
    const std::vector<double> deadlines = workload::draw_deadlines(
        instance.requests, eec, lo, 2.0 * lo, rng);
    const sim::SimulationResult unaware =
        sim::run_trms(instance.problem, scenario.rms);
    const sim::SimulationResult aware = sim::run_trms(
        instance.problem.with_policy(sched::trust_aware_policy()),
        scenario.rms);
    obs::RunReport report;
    report.set("unaware.miss_rate",
               workload::deadline_miss_fraction(unaware.schedule, deadlines));
    report.set("aware.miss_rate",
               workload::deadline_miss_fraction(aware.schedule, deadlines));
    return report;
  };
  spec.finalize = [](const Cell&, AggregateSet& aggregate) {
    aggregate.set_derived("misses_avoided_pct",
                          (aggregate.mean("unaware.miss_rate") -
                           aggregate.mean("aware.miss_rate")) *
                              100.0);
  };
  spec.display_metrics = {"unaware.miss_rate", "aware.miss_rate",
                          "misses_avoided_pct"};
  return spec;
}

SweepSpec smoke_spec() {
  SweepSpec spec;
  spec.name = "smoke";
  spec.title = "CI smoke sweep: one small Table 4 condition";
  spec.paper_ref = "Table 4, shrunk for CI (baselines/smoke.json)";
  spec.expected = "trust-aware wins; gated against the committed baseline";
  spec.axes = {{"tasks", {20}}};
  spec.replications = 6;
  spec.tolerance_pct = 2.5;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    const sim::Scenario scenario =
        sim::ScenarioBuilder()
            .tasks(static_cast<std::size_t>(cell.number("tasks")))
            .heuristic("mct")
            .immediate()
            .inconsistent()
            .build();
    return sim::run_paired(scenario, rep_seed);
  };
  spec.finalize = finalize_paired;
  spec.display_metrics = {"unaware.makespan", "aware.makespan",
                          "improvement_pct"};
  return spec;
}

std::vector<SweepSpec> build_catalog() {
  std::vector<SweepSpec> specs;
  specs.push_back(paper_table_spec("4", "mct", false, false,
                                   "36.99% / 37.59%"));
  specs.push_back(paper_table_spec("5", "mct", false, true,
                                   "34.44% / 34.26%"));
  specs.push_back(paper_table_spec("6", "min-min", true, false,
                                   "23.51% / 23.34%"));
  specs.push_back(paper_table_spec("7", "min-min", true, true,
                                   "25.28% / 25.32%"));
  specs.push_back(paper_table_spec("8", "sufferage", true, false,
                                   "39.66% / 38.40%"));
  specs.push_back(paper_table_spec("9", "sufferage", true, true,
                                   "32.67% / 33.19%"));
  specs.push_back(chaos_robustness_spec());
  specs.push_back(backend_tournament_spec());
  specs.push_back(pricing_ablation_spec(/*sweep_weight=*/true));
  specs.push_back(pricing_ablation_spec(/*sweep_weight=*/false));
  specs.push_back(batch_interval_spec());
  specs.push_back(market_tournament_spec());
  specs.push_back(deadlines_spec());
  specs.push_back(smoke_spec());
  specs.push_back(smoke_backends_spec());
  specs.push_back(smoke_econ_spec());
  return specs;
}

}  // namespace

const std::vector<SweepSpec>& builtin_specs() {
  static const std::vector<SweepSpec> specs = build_catalog();
  return specs;
}

const SweepSpec* find_spec(const std::string& name) {
  for (const SweepSpec& spec : builtin_specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, std::vector<std::string>>>& suites() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      groups = [] {
        std::vector<std::pair<std::string, std::vector<std::string>>> out;
        out.emplace_back(
            "tables", std::vector<std::string>{"table4", "table5", "table6",
                                               "table7", "table8", "table9"});
        out.emplace_back("ablations", std::vector<std::string>{
                                          "ablation_trust_weight",
                                          "ablation_blanket",
                                          "ablation_batch_interval"});
        out.emplace_back("markets",
                         std::vector<std::string>{"market_tournament",
                                                  "deadlines", "smoke_econ"});
        std::vector<std::string> all;
        for (const SweepSpec& spec : builtin_specs()) all.push_back(spec.name);
        out.emplace_back("all", std::move(all));
        return out;
      }();
  return groups;
}

std::vector<std::string> resolve_run_names(const std::string& name) {
  for (const auto& [suite_name, members] : suites()) {
    if (suite_name == name) return members;
  }
  if (find_spec(name) != nullptr) return {name};
  return {};
}

}  // namespace gridtrust::lab
