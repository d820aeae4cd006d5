// Flagship composition bench: a collusion attack *inside* the scheduling
// loop.  A hostile resource domain has an allied client domain that
// whitewashes its conduct (and badmouths every other resource domain).
// The reputation backend decides the outcome:
//
//   Γ (the paper's model): per-evaluator direct trust plus
//   recommender-weighted reputation.  Honest client domains' own bad
//   experiences dominate, and the colluder's praise is discounted by R.
//
//   pooled Beta baseline: one global opinion per domain, every rating
//   counted equally — the colluder keeps the hostile domain's offered
//   level inflated for everyone, and sensitive work keeps landing there
//   under-protected.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/behavior.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario_builder.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("bench_collusion_loop",
                "Collusion attack in the closed loop: Γ+R vs pooled Beta");
  cli.add_uint("rounds", 14, "scheduling rounds");
  cli.add_uint("tasks", 60, "tasks per round");
  cli.add_uint("seeds", 8, "independent runs to average");
  cli.add_flag("csv", "emit CSV instead of the ASCII table");
  cli.parse(argc, argv);

  // rd2 is hostile; cd2 is its ally and whitewashes it.
  chaos::AdversarySpec hostile;
  hostile.domain = 2;
  hostile.kind = chaos::BehaviorKind::kCollusive;
  hostile.malicious_mean = 1.6;
  chaos::AdversarySpec ally;
  ally.side = chaos::AdversarySide::kClientDomain;
  ally.domain = 2;
  ally.kind = chaos::BehaviorKind::kCollusive;

  const auto run_arm = [&](const std::string& backend, bool with_collusion) {
    std::vector<chaos::AdversarySpec> domains = {
        chaos::fixed_conduct(0, 5.6), chaos::fixed_conduct(1, 4.4),
        chaos::fixed_conduct(2, 1.6)};
    if (with_collusion) domains = {domains[0], domains[1], hostile, ally};
    const sim::Scenario scenario = sim::ScenarioBuilder()
                                       .machines(6)
                                       .resource_domains(3, 3)
                                       .client_domains(3, 3)
                                       .with_adversaries(domains)
                                       .with_reputation_backend(backend)
                                       .build();
    sim::RoundConfig config;
    config.rounds = static_cast<std::size_t>(cli.get_uint("rounds"));
    config.tasks_per_round = static_cast<std::size_t>(cli.get_uint("tasks"));
    config.initial_level = trust::TrustLevel::kE;
    config.honest_cd_mean = 5.0;
    config.conduct_sigma = 0.4;
    config.engine.alliance_discount = 0.1;

    RunningStats tail_exposure;
    RunningStats hostile_level;
    const auto seeds = static_cast<std::size_t>(cli.get_uint("seeds"));
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      const sim::CampaignResult run =
          sim::run_campaign(scenario, config, seed + 41);
      for (std::size_t i = run.rounds.size() - 4; i < run.rounds.size(); ++i) {
        tail_exposure.add(run.rounds[i].mean_residual_exposure_honest);
      }
      // The hostile domain's level as an honest client domain (cd0) sees it.
      hostile_level.add(static_cast<double>(
          trust::to_numeric(run.final_table.get(0, 2, 0))));
    }
    return std::pair{tail_exposure.mean(), hostile_level.mean()};
  };

  TextTable table({"maintainer", "collusion",
                   "honest-CD residual exposure",
                   "hostile rd level (cd0 view)"});
  table.set_title(
      "Collusion attack in the scheduling loop (truth: hostile rd ~ 1.6)");
  for (const auto& [backend, name] :
       {std::pair{"gamma", "Γ bridge (paper)"},
        std::pair{"beta", "pooled Beta"}}) {
    for (const bool collusion : {false, true}) {
      const auto [exposure, level] = run_arm(backend, collusion);
      table.add_row({name, collusion ? "yes" : "no",
                     format_grouped(exposure, 3), format_grouped(level, 1)});
    }
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: without collusion both maintainers learn the "
               "hostile domain.  Under attack, honest client domains stay "
               "protected under the paper's per-evaluator Γ (their own "
               "direct experience dominates and R discounts the ally's "
               "praise), while the pooled Beta table is whitewashed for "
               "everyone — the design reason §2.2 introduces R.\n";
  return 0;
}
