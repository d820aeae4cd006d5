// Adaptive RMS: the closed trust/scheduling loop as an application.
//
// A Grid operator stands up a TRMS with *no* prior trust data (everything
// starts fully trusted).  One resource domain turns out to be hostile.  The
// example shows, round by round, how the scheduler's protection catches up
// with reality — and what a frozen deployment would keep silently risking.
#include <iostream>

#include "chaos/behavior.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario_builder.hpp"
#include "trust/serialization.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("adaptive_rms", "Closed-loop trust-aware RMS walkthrough");
  cli.add_uint("rounds", 8, "scheduling rounds");
  cli.add_uint("seed", 99, "random seed");
  cli.add_flag("dump-table", "print the learned table in its save format");
  cli.parse(argc, argv);

  const double truth[3] = {
      5.7,  // rd0: well-run HPC centre
      4.2,  // rd1: decent but patchy
      1.5,  // rd2: compromised
  };
  const sim::Scenario scenario =
      sim::ScenarioBuilder()
          .machines(6)
          .resource_domains(3, 3)
          .client_domains(2, 2)
          .batch()
          .heuristic("min-min")
          .with_adversaries({chaos::fixed_conduct(0, truth[0]),
                             chaos::fixed_conduct(1, truth[1]),
                             chaos::fixed_conduct(2, truth[2])})
          .build();

  sim::RoundConfig config;
  config.rounds = static_cast<std::size_t>(cli.get_uint("rounds"));
  config.tasks_per_round = 50;
  config.initial_level = trust::TrustLevel::kE;  // optimistic bootstrap

  const sim::CampaignResult run = sim::run_campaign(
      scenario, config, cli.get_uint("seed"));

  TextTable table({"round", "makespan (s)", "mean chosen TC",
                   "uncovered exposure", "table updates"});
  table.set_title("adaptive_rms: learning who to trust while scheduling");
  for (const sim::CampaignRoundMetrics& round : run.rounds) {
    table.add_row({std::to_string(round.round + 1),
                   format_grouped(round.makespan, 1),
                   format_grouped(round.mean_table_trust_cost, 2),
                   format_grouped(round.mean_residual_exposure, 2),
                   std::to_string(round.table_updates)});
  }
  std::cout << table << "\n";
  std::cout << "what the system learned (client domain 0, activity "
               "'execute'): ";
  for (std::size_t rd = 0; rd < 3; ++rd) {
    std::cout << "rd" << rd << "="
              << trust::to_string(run.final_table.get(0, rd, 0)) << " ";
  }
  std::cout << " (truth ~ " << truth[0] << " / " << truth[1] << " / "
            << truth[2] << ")\n"
            << run.transactions
            << " transactions observed by the Fig. 1 agents.\n";

  if (cli.get_flag("dump-table")) {
    std::cout << "\n-- persisted trust table "
                 "(trust::save_table format) --\n"
              << trust::table_to_string(run.final_table);
  }
  return 0;
}
