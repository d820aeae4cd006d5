// Trust federation: the full Fig. 1 loop in action.
//
// Client and resource domain agents observe Grid transactions, feed the
// §2.2 trust engine (direct trust + reputation + decay + recommender
// weighting), and periodically refresh the central trust-level table.  A
// colluding alliance tries to inflate a misbehaving domain's reputation;
// the recommender trust factor R contains the damage, and the scheduler's
// view of the offered trust levels tracks actual conduct.
#include <iostream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "trust/agents.hpp"
#include "trust/reputation_registry.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("trust_federation",
                "Evolving trust with agents, decay, and collusion");
  cli.add_uint("rounds", 30, "transaction rounds to simulate");
  cli.add_uint("seed", 11, "random seed");
  cli.parse(argc, argv);
  Rng rng(cli.get_uint("seed"));

  // Four client domains, three resource domains, one activity ("execute").
  // Ground-truth conduct of the resource domains on the 1..6 scale:
  //   rd0 exemplary (5.8), rd1 mediocre (3.2), rd2 hostile (1.3).
  const double conduct[3] = {5.8, 3.2, 1.3};

  trust::ReputationParams params;
  params.entities = 4 + 3;
  params.contexts = 1;
  params.gamma.alpha = 0.6;
  params.gamma.beta = 0.4;
  params.gamma.learning_rate = 0.25;
  params.gamma.learn_recommender_weights = true;
  params.gamma.decay = trust::make_exponential_decay(500.0);
  trust::DomainTrustBridge bridge(
      trust::make_reputation_policy("gamma", params), 4, 3, 1,
      /*min_transactions=*/3);

  // Client domain 3 is in an alliance with hostile rd2 and will praise it.
  bridge.policy().alliance_graph()->ally(bridge.cd_entity(3),
                                         bridge.rd_entity(2));

  trust::TrustLevelTable table(4, 3, 1);
  const std::uint64_t rounds = cli.get_uint("rounds");
  double now = 0.0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (std::size_t cd = 0; cd < 4; ++cd) {
      for (std::size_t rd = 0; rd < 3; ++rd) {
        now += rng.exponential(2.0);
        // Honest observation with noise; the colluder always reports 6.0
        // for its ally regardless of actual conduct.
        const bool colluding = (cd == 3 && rd == 2);
        const double honest =
            std::min(6.0, std::max(1.0, conduct[rd] + rng.normal(0.0, 0.4)));
        bridge.observe_client_side(cd, rd, 0, now, colluding ? 6.0 : honest);
        // Resource-side agents observe client conduct (benign here).
        bridge.observe_resource_side(rd, cd, 0, now,
                                     std::min(6.0, 4.5 + rng.normal(0.0, 0.3)));
      }
    }
    const std::size_t updates = bridge.refresh(table, now);
    if (round == 0 || round == rounds / 2 || round == rounds - 1) {
      std::cout << "after round " << round + 1 << " (" << updates
                << " table updates):\n";
      TextTable t({"", "rd0 (exemplary)", "rd1 (mediocre)", "rd2 (hostile)"});
      for (std::size_t cd = 0; cd < 4; ++cd) {
        t.add_row({"cd" + std::to_string(cd) +
                       (cd == 3 ? " (colludes with rd2)" : ""),
                   trust::to_string(table.get(cd, 0, 0)),
                   trust::to_string(table.get(cd, 1, 0)),
                   trust::to_string(table.get(cd, 2, 0))});
      }
      std::cout << t << "\n";
    }
  }

  // How much influence did the colluder retain?
  const double r_colluder = bridge.engine().recommender_factor(
      bridge.cd_entity(0), bridge.cd_entity(3), bridge.rd_entity(2));
  const double r_honest = bridge.engine().recommender_factor(
      bridge.cd_entity(0), bridge.cd_entity(1), bridge.rd_entity(2));
  std::cout << "recommender factor R as seen by cd0: colluding cd3 = "
            << format_grouped(r_colluder, 3) << ", honest cd1 = "
            << format_grouped(r_honest, 3) << "\n"
            << "(the alliance discount plus learned reliability keep the "
               "colluder from whitewashing rd2's row)\n"
            << "transactions folded into the engine: "
            << bridge.policy().transaction_count() << "\n";
  return 0;
}
