// Local-search batch mappers: simulated annealing and tabu search.
//
// Together with the GA (genetic.cpp) these complete the classic comparator
// set used in the static/dynamic mapping literature around [10] (Braun et
// al. evaluated GA, SA, and Tabu against Min-min on the same ETC model).
// Both start from the Min-min solution, explore single-reassignment moves,
// and are deterministic: RNG seeds derive from the batch content.
#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/heuristic.hpp"

namespace gridtrust::sched {

namespace {

/// Shared scaffolding: batch-local fitness and the Min-min seed.
class LocalSearchBase : public BatchHeuristic {
 protected:
  struct Working {
    const SchedulingProblem* problem = nullptr;
    const std::vector<std::size_t>* batch = nullptr;
    double ready = 0.0;
    const Schedule* base = nullptr;
  };

  static void check_batch(const SchedulingProblem& p,
                          const std::vector<std::size_t>& batch,
                          const Schedule& schedule) {
    GT_REQUIRE(!batch.empty(), "cannot map an empty batch");
    sched::check_batch(p, batch, schedule);
  }

  /// Makespan of `genes` appended to the base availability.
  static double fitness(const Working& w, const std::vector<std::size_t>& genes) {
    std::vector<double> avail = w.base->machine_available;
    double makespan = 0.0;
    for (std::size_t i = 0; i < w.batch->size(); ++i) {
      const std::size_t r = (*w.batch)[i];
      const std::size_t m = genes[i];
      const double begin =
          std::max({avail[m], w.ready, w.problem->arrival_time(r)});
      avail[m] = begin + w.problem->actual_cost(r, m);
      makespan = std::max(makespan, avail[m]);
    }
    return makespan;
  }

  static std::vector<std::size_t> min_min_seed(
      const SchedulingProblem& p, const std::vector<std::size_t>& batch,
      double ready, const Schedule& schedule) {
    Schedule probe = schedule;
    auto minmin = make_min_min();
    minmin->map_batch(p, batch, ready, probe);
    std::vector<std::size_t> genes(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      genes[i] = probe.machine_of[batch[i]];
    }
    return genes;
  }

  static Rng batch_rng(const std::vector<std::size_t>& batch,
                       std::uint64_t salt) {
    std::uint64_t seed = salt ^ (batch.size() * 0x9e3779b97f4a7c15ULL);
    for (const std::size_t r : batch) seed = seed * 1099511628211ULL + r;
    return Rng(seed);
  }

  static void commit(const SchedulingProblem& p,
                     const std::vector<std::size_t>& batch, double ready,
                     const std::vector<std::size_t>& genes,
                     Schedule& schedule) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      commit_assignment(p, batch[i], genes[i], ready, schedule);
    }
  }
};

/// Simulated annealing with geometric cooling; never returns a solution
/// worse than the Min-min seed (the best-so-far is tracked separately).
class SimulatedAnnealing final : public LocalSearchBase {
 public:
  std::string name() const override { return "annealing"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    const Working w{&p, &batch, ready, &schedule};
    Rng rng = batch_rng(batch, 0x5a5a);
    std::vector<std::size_t> current = min_min_seed(p, batch, ready, schedule);
    double current_cost = fitness(w, current);
    std::vector<std::size_t> best = current;
    double best_cost = current_cost;

    // Initial temperature scaled to the makespan; enough to accept ~10 %
    // uphill moves early.
    double temperature = 0.05 * current_cost;
    const double cooling = 0.97;
    const std::size_t iterations = 60 * batch.size();
    for (std::size_t it = 0; it < iterations; ++it) {
      const std::size_t pos = rng.index(batch.size());
      const std::size_t old_machine = current[pos];
      std::size_t candidate = rng.index(p.num_machines());
      if (candidate == old_machine) {
        candidate = (candidate + 1) % p.num_machines();
      }
      current[pos] = candidate;
      const double cost = fitness(w, current);
      const double delta = cost - current_cost;
      if (delta <= 0.0 ||
          (temperature > 0.0 && rng.uniform() < std::exp(-delta / temperature))) {
        current_cost = cost;
        if (cost < best_cost) {
          best_cost = cost;
          best = current;
        }
      } else {
        current[pos] = old_machine;  // reject
      }
      temperature *= cooling;
    }
    commit(p, batch, ready, best, schedule);
  }
};

/// Tabu search over single-reassignment moves with a recency tabu list on
/// (position, machine) pairs and best-solution aspiration.
class TabuSearch final : public LocalSearchBase {
 public:
  std::string name() const override { return "tabu"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    const Working w{&p, &batch, ready, &schedule};
    Rng rng = batch_rng(batch, 0x7ab0);
    std::vector<std::size_t> current = min_min_seed(p, batch, ready, schedule);
    double current_cost = fitness(w, current);
    std::vector<std::size_t> best = current;
    double best_cost = current_cost;

    const std::size_t tenure = std::max<std::size_t>(4, batch.size() / 4);
    // tabu_until[pos][machine]: iteration until which the move is tabu.
    std::vector<std::vector<std::size_t>> tabu_until(
        batch.size(), std::vector<std::size_t>(p.num_machines(), 0));
    const std::size_t iterations = 40 * batch.size();
    const std::size_t neighbourhood = std::min<std::size_t>(
        24, batch.size() * (p.num_machines() - 1));

    for (std::size_t it = 1; it <= iterations; ++it) {
      double best_move_cost = std::numeric_limits<double>::infinity();
      std::size_t move_pos = 0;
      std::size_t move_machine = 0;
      // Sample a neighbourhood of random single-reassignment moves.
      for (std::size_t k = 0; k < neighbourhood; ++k) {
        const std::size_t pos = rng.index(batch.size());
        std::size_t machine = rng.index(p.num_machines());
        if (machine == current[pos]) {
          machine = (machine + 1) % p.num_machines();
        }
        const std::size_t old_machine = current[pos];
        current[pos] = machine;
        const double cost = fitness(w, current);
        current[pos] = old_machine;
        const bool tabu = tabu_until[pos][machine] >= it;
        const bool aspirated = cost < best_cost;  // aspiration criterion
        if ((tabu && !aspirated) || cost >= best_move_cost) continue;
        best_move_cost = cost;
        move_pos = pos;
        move_machine = machine;
      }
      if (!std::isfinite(best_move_cost)) continue;  // all moves tabu
      // Make the move; returning to the vacated machine is tabu for a while.
      tabu_until[move_pos][current[move_pos]] = it + tenure;
      current[move_pos] = move_machine;
      current_cost = best_move_cost;
      if (current_cost < best_cost) {
        best_cost = current_cost;
        best = current;
      }
    }
    commit(p, batch, ready, best, schedule);
  }
};

}  // namespace

std::unique_ptr<BatchHeuristic> make_annealing() {
  return std::make_unique<SimulatedAnnealing>();
}

std::unique_ptr<BatchHeuristic> make_tabu() {
  return std::make_unique<TabuSearch>();
}

}  // namespace gridtrust::sched
