// Genetic-algorithm batch mapper.
//
// The classic static-mapping comparator (Braun et al.'s GA, adapted to the
// batch-mode TRM setting): chromosomes are request->machine assignments for
// the meta-request, fitness is the resulting makespan given the machines'
// current availability, the population is seeded with the Min-min solution
// plus random mappings, and evolution uses elitist selection, single-point
// crossover, and point mutation.  Deterministic: the RNG is seeded from the
// batch content.
#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/heuristic.hpp"

namespace gridtrust::sched {

namespace {

/// GA tuning; fixed internally, chosen to keep a 100-task batch in the
/// low-millisecond range.
struct GaParams {
  std::size_t population = 40;
  std::size_t generations = 120;
  std::size_t elite = 4;
  double crossover_rate = 0.9;
  double mutation_rate = 0.03;  // per gene
  /// Stop early after this many generations without improvement.
  std::size_t patience = 25;
};

class Genetic final : public BatchHeuristic {
 public:
  std::string name() const override { return "genetic"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    GT_REQUIRE(!batch.empty(), "cannot map an empty batch");
    check_batch(p, batch, schedule);

    const std::size_t n = batch.size();
    const std::size_t m = p.num_machines();

    // Fitness: makespan of the batch appended to the current availability,
    // honoring ready/arrival floors in arrival order within each machine.
    const auto fitness = [&](const std::vector<std::size_t>& genes) {
      std::vector<double> avail = schedule.machine_available;
      double makespan = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = batch[i];
        const std::size_t machine = genes[i];
        const double begin =
            std::max({avail[machine], ready, p.arrival_time(r)});
        avail[machine] = begin + p.actual_cost(r, machine);
        makespan = std::max(makespan, avail[machine]);
      }
      return makespan;
    };

    // Deterministic seed derived from the batch identity.
    Rng rng(derive_seed(n, batch));

    GaParams params;
    const std::size_t pop_size = std::max<std::size_t>(params.population, 8);

    // Seed chromosome: the Min-min schedule, extracted without committing.
    std::vector<std::size_t> minmin_genes(n);
    {
      Schedule probe = schedule;
      auto minmin = make_min_min();
      minmin->map_batch(p, batch, ready, probe);
      for (std::size_t i = 0; i < n; ++i) {
        minmin_genes[i] = probe.machine_of[batch[i]];
      }
    }

    std::vector<std::vector<std::size_t>> population;
    population.reserve(pop_size);
    population.push_back(minmin_genes);
    while (population.size() < pop_size) {
      std::vector<std::size_t> genes(n);
      for (auto& g : genes) g = rng.index(m);
      population.push_back(std::move(genes));
    }

    std::vector<double> scores(pop_size);
    for (std::size_t i = 0; i < pop_size; ++i) {
      scores[i] = fitness(population[i]);
    }

    const auto rank = [&] {
      std::vector<std::size_t> order(pop_size);
      for (std::size_t i = 0; i < pop_size; ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return scores[a] < scores[b];
                       });
      return order;
    };

    double best = std::numeric_limits<double>::infinity();
    std::size_t stale = 0;
    for (std::size_t gen = 0; gen < params.generations; ++gen) {
      const std::vector<std::size_t> order = rank();
      if (scores[order[0]] + 1e-12 < best) {
        best = scores[order[0]];
        stale = 0;
      } else if (++stale >= params.patience) {
        break;
      }

      std::vector<std::vector<std::size_t>> next;
      next.reserve(pop_size);
      for (std::size_t e = 0; e < params.elite; ++e) {
        next.push_back(population[order[e]]);
      }
      while (next.size() < pop_size) {
        // Tournament selection of two parents.
        const auto pick = [&] {
          const std::size_t a = rng.index(pop_size);
          const std::size_t b = rng.index(pop_size);
          return scores[a] <= scores[b] ? a : b;
        };
        std::vector<std::size_t> child = population[pick()];
        if (rng.bernoulli(params.crossover_rate)) {
          const std::vector<std::size_t>& other = population[pick()];
          const std::size_t cut = rng.index(n);
          for (std::size_t i = cut; i < n; ++i) child[i] = other[i];
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.bernoulli(params.mutation_rate)) child[i] = rng.index(m);
        }
        next.push_back(std::move(child));
      }
      population = std::move(next);
      for (std::size_t i = 0; i < pop_size; ++i) {
        scores[i] = fitness(population[i]);
      }
    }

    const std::vector<std::size_t> order = rank();
    const std::vector<std::size_t>& winner = population[order[0]];
    // Commit in arrival order so start-time floors match the fitness model.
    std::vector<std::size_t> commit_order(n);
    for (std::size_t i = 0; i < n; ++i) commit_order[i] = i;
    for (const std::size_t i : commit_order) {
      commit_assignment(p, batch[i], winner[i], ready, schedule);
    }
  }
};

}  // namespace

std::unique_ptr<BatchHeuristic> make_genetic() {
  return std::make_unique<Genetic>();
}

}  // namespace gridtrust::sched
