// Extension bench for the §2.2 trust management engine (the paper lists its
// deployment as ongoing work): convergence of Γ to behavioural ground truth
// and collusion resistance of the recommender trust factor R.
#include <algorithm>
#include <cmath>
#include <tuple>
#include <iostream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "trust/reputation_registry.hpp"

namespace {

using namespace gridtrust;
using trust::EntityId;

/// Mean |Γ - truth| over all (truster, trustee) pairs after `interactions`
/// random transactions against fixed ground-truth conduct.
double convergence_error(std::size_t entities, std::size_t interactions,
                         double noise, Rng& rng) {
  trust::ReputationParams params;
  params.entities = entities;
  params.contexts = 1;
  params.gamma.learning_rate = 0.2;
  const auto policy = trust::make_reputation_policy("gamma", params);
  std::vector<double> truth(entities);
  for (double& t : truth) t = rng.uniform(1.0, 6.0);
  for (std::size_t i = 0; i < interactions; ++i) {
    const auto a = static_cast<EntityId>(rng.index(entities));
    auto b = static_cast<EntityId>(rng.index(entities));
    if (a == b) b = static_cast<EntityId>((b + 1) % entities);
    const double observed =
        std::clamp(truth[b] + rng.normal(0.0, noise), 1.0, 6.0);
    policy->record_transaction(
        {a, b, 0, static_cast<double>(i), observed});
  }
  RunningStats err;
  for (EntityId x = 0; x < entities; ++x) {
    for (EntityId y = 0; y < entities; ++y) {
      if (x == y) continue;
      err.add(std::abs(policy->evaluate(x, y, 0,
                                        static_cast<double>(interactions)) -
                       truth[y]));
    }
  }
  return err.mean();
}

/// Reputation of a misbehaving target (truth = 1.5) as seen by a fresh
/// evaluator when `colluders` allies praise it at 6.0 and `honest` entities
/// report the truth.  Returns (Γ with R, Γ without R, Beta) reputations.
std::tuple<double, double, double> collusion_experiment(
    std::size_t colluders, std::size_t honest) {
  const std::size_t entities = 2 + colluders + honest;  // evaluator + target
  const EntityId target = 1;
  trust::ReputationParams params;
  params.entities = entities;
  params.contexts = 1;
  auto run = [&](double discount) {
    params.gamma.alliance_discount = discount;
    const auto policy = trust::make_reputation_policy("gamma", params);
    EntityId next = 2;
    for (std::size_t c = 0; c < colluders; ++c, ++next) {
      policy->alliance_graph()->ally(next, target);
      policy->record_transaction({next, target, 0, 0.0, 6.0});
    }
    for (std::size_t h = 0; h < honest; ++h, ++next) {
      policy->record_transaction({next, target, 0, 0.0, 1.5});
    }
    return policy->reputation_component(0, target, 0, 1.0).value_or(0.0);
  };
  // The pooled-evidence Beta baseline has no recommender weighting at all.
  params.gamma = trust::TrustEngineConfig{};
  const auto beta = trust::make_reputation_policy("beta", params);
  double clock = 0.0;
  EntityId next = 2;
  for (std::size_t c = 0; c < colluders; ++c, ++next) {
    clock += 1.0;
    beta->record_transaction({next, target, 0, clock, 6.0});
  }
  for (std::size_t h = 0; h < honest; ++h, ++next) {
    clock += 1.0;
    beta->record_transaction({next, target, 0, clock, 1.5});
  }
  return {run(0.1), run(1.0), beta->evaluate(0, target, 0, clock)};
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_trust_evolution",
                "Trust-engine convergence and collusion resistance");
  cli.add_uint("entities", 12, "entities in the population");
  cli.add_uint("seed", 404, "random seed");
  cli.add_flag("csv", "emit CSV instead of ASCII tables");
  cli.parse(argc, argv);
  Rng rng(cli.get_uint("seed"));
  const auto entities = static_cast<std::size_t>(cli.get_uint("entities"));

  TextTable conv({"interactions", "mean |Gamma - truth| (noise 0.5)",
                  "mean |Gamma - truth| (noise 1.5)"});
  conv.set_title("Trust convergence toward behavioural ground truth");
  for (const std::size_t n : {50u, 200u, 1000u, 5000u, 20000u}) {
    Rng r1 = rng.stream(n);
    Rng r2 = rng.stream(n + 1);
    conv.add_row({std::to_string(n),
                  format_grouped(convergence_error(entities, n, 0.5, r1), 3),
                  format_grouped(convergence_error(entities, n, 1.5, r2), 3)});
  }
  std::cout << (cli.get_flag("csv") ? conv.to_csv() : conv.to_string())
            << "\n";

  TextTable coll({"colluders", "honest", "Γ with R", "Γ without R",
                  "Beta (pooled)", "truth"});
  coll.set_title(
      "Collusion resistance: inflated reputation of a misbehaving target");
  for (const auto& [c, h] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 5}, {3, 3}, {5, 1}, {8, 2}}) {
    const auto [with_r, without_r, beta] = collusion_experiment(c, h);
    coll.add_row({std::to_string(c), std::to_string(h),
                  format_grouped(with_r, 2), format_grouped(without_r, 2),
                  format_grouped(beta, 2), "1.50"});
  }
  std::cout << (cli.get_flag("csv") ? coll.to_csv() : coll.to_string());
  std::cout << "\nreading: more data tightens Γ toward ground truth; the "
               "recommender factor R keeps colluding allies from inflating "
               "a bad actor's reputation, which both the unweighted Γ and "
               "the pooled-evidence Beta baseline fail to prevent.\n";
  return 0;
}
