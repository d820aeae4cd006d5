// Batch-mode heuristics: Min-min, Max-min, Sufferage, Duplex.
#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "sched/heuristic.hpp"

namespace gridtrust::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Best machine and its completion for one request.
struct Best {
  std::size_t machine = 0;
  double completion = kInf;
};

/// Best plus the second-best completion, which only Sufferage reads.
struct BestChoice {
  std::size_t machine = 0;
  double completion = kInf;
  double second_completion = kInf;
};

/// Min-min and Max-min's scan of request r's decision-cost row: completion
/// on machine m is max(α_m, floor) + decision_cost(r, m) with floor =
/// max(ready, arrival), the value decision_completion gives.  Selects, not
/// branches; the lowest machine index wins ties.
Best best_machine(const SchedulingProblem& p, std::size_t r, double ready,
                  const Schedule& schedule) {
  const double floor = std::max(ready, p.arrival_time(r));
  const double* cost = p.decision_row(r);
  const double* available = schedule.machine_available.data();
  Best out;
  for (std::size_t m = 0; m < p.num_machines(); ++m) {
    const double ct = std::max(available[m], floor) + cost[m];
    const bool better = ct < out.completion;
    out.machine = better ? m : out.machine;
    out.completion = better ? ct : out.completion;
  }
  return out;
}

/// best_machine that also tracks the second-best completion (Sufferage),
/// by selects: a new best pushes the old one into second place, an equal
/// later completion becomes the second best, and the lowest machine index
/// wins ties for the best.
BestChoice best_choice(const SchedulingProblem& p, std::size_t r, double ready,
                       const Schedule& schedule) {
  const double floor = std::max(ready, p.arrival_time(r));
  const double* cost = p.decision_row(r);
  const double* available = schedule.machine_available.data();
  BestChoice out;
  for (std::size_t m = 0; m < p.num_machines(); ++m) {
    const double ct = std::max(available[m], floor) + cost[m];
    out.second_completion =
        std::min(out.second_completion, std::max(out.completion, ct));
    out.machine = ct < out.completion ? m : out.machine;
    out.completion = std::min(out.completion, ct);
  }
  return out;
}

/// Position of the first entry with the smallest (kMax: largest)
/// completion, by selects; the first in batch order wins ties.
template <bool kMax>
std::size_t pick_extremal(const std::vector<Best>& best) {
  std::size_t pick = 0;
  double extreme = best[0].completion;
  for (std::size_t i = 1; i < best.size(); ++i) {
    const double c = best[i].completion;
    const bool better = kMax ? c > extreme : c < extreme;
    pick = better ? i : pick;
    extreme = better ? c : extreme;
  }
  return pick;
}

/// Shared engine for Min-min and Max-min: repeatedly pick the pending
/// request whose *best* completion is extremal and commit it.
///
/// Each pending request keeps its Best.  A commit to machine j only raises
/// α_j, so a request whose best machine is k ≠ j keeps both its best
/// completion and its lowest-index tie-break; only requests whose best
/// machine is j are rescanned.  The picks equal a full rescan's exactly.
class MinMaxMin final : public BatchHeuristic {
 public:
  explicit MinMaxMin(bool prefer_max) : prefer_max_(prefer_max) {}

  std::string name() const override { return prefer_max_ ? "max-min" : "min-min"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    std::vector<std::size_t> pending = batch;
    std::vector<Best> best(pending.size());  // best[i] is pending[i]'s
    for (std::size_t i = 0; i < pending.size(); ++i) {
      best[i] = best_machine(p, pending[i], ready, schedule);
    }
    while (!pending.empty()) {
      const std::size_t pick =
          prefer_max_ ? pick_extremal<true>(best) : pick_extremal<false>(best);
      const std::size_t machine = best[pick].machine;
      commit_assignment(p, pending[pick], machine, ready, schedule);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
      best.erase(best.begin() + static_cast<std::ptrdiff_t>(pick));
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (best[i].machine == machine) {
          best[i] = best_machine(p, pending[i], ready, schedule);
        }
      }
    }
  }

 private:
  bool prefer_max_;
};

/// Sufferage [10]: within an iteration each machine is tentatively reserved
/// by the pending request that would suffer most (largest gap between its
/// second-best and best completion) if denied that machine; reservation
/// winners commit, losers wait for the next iteration.
///
/// Unlike Min-min there is no cache of best machines: a deferred request's
/// best machine had a holder in that iteration, which committed and moved
/// its α, so every pending request needs a fresh scan anyway.  The scan is
/// best_choice, since the sufferage value needs the second best.
class Sufferage final : public BatchHeuristic {
 public:
  std::string name() const override { return "sufferage"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    std::vector<std::size_t> pending = batch;
    // machine -> (request holding it, its sufferage value)
    std::vector<std::size_t> holder;
    std::vector<double> holder_sufferage;
    std::vector<std::size_t> deferred;
    while (!pending.empty()) {
      holder.assign(p.num_machines(), kUnassigned);
      holder_sufferage.assign(p.num_machines(), -kInf);
      // Each request defers at most one (the first defers none), so the
      // i-th request's loser lands at an index <= i.
      deferred.resize(pending.size());
      std::size_t num_deferred = 0;
      for (const std::size_t r : pending) {
        const BestChoice c = best_choice(p, r, ready, schedule);
        const double sufferage =
            (c.second_completion == kInf) ? 0.0
                                          : c.second_completion - c.completion;
        // By selects: r takes machine m if it is free or r suffers more
        // than its holder; the loser (none, the old holder or r) defers.
        const std::size_t m = c.machine;
        const std::size_t held = holder[m];
        const bool wins =
            held == kUnassigned || sufferage > holder_sufferage[m];
        const std::size_t loser = wins ? held : r;
        deferred[num_deferred] = loser;
        num_deferred += loser != kUnassigned ? 1 : 0;
        holder[m] = wins ? r : held;
        holder_sufferage[m] = wins ? sufferage : holder_sufferage[m];
      }
      deferred.resize(num_deferred);
      for (std::size_t m = 0; m < p.num_machines(); ++m) {
        if (holder[m] != kUnassigned) {
          commit_assignment(p, holder[m], m, ready, schedule);
        }
      }
      GT_ASSERT(deferred.size() < pending.size());  // progress each round
      pending.swap(deferred);
    }
  }
};

/// Duplex [10]: evaluate both Min-min and Max-min, keep the better makespan.
class Duplex final : public BatchHeuristic {
 public:
  std::string name() const override { return "duplex"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    Schedule with_min = schedule;
    Schedule with_max = schedule;
    MinMaxMin(false).map_batch(p, batch, ready, with_min);
    MinMaxMin(true).map_batch(p, batch, ready, with_max);
    schedule = (with_min.makespan() <= with_max.makespan()) ? std::move(with_min)
                                                            : std::move(with_max);
  }
};

}  // namespace

void check_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch,
                 const Schedule& schedule) {
  GT_REQUIRE(schedule.machine_of.size() == p.num_requests() &&
                 schedule.machine_available.size() == p.num_machines(),
             "schedule was not sized for this problem");
  std::vector<bool> seen(p.num_requests(), false);
  for (const std::size_t r : batch) {
    GT_REQUIRE(r < p.num_requests(), "request index out of range");
    GT_REQUIRE(schedule.machine_of[r] == kUnassigned,
               "batch contains an already-assigned request");
    GT_REQUIRE(!seen[r], "batch contains a request twice");
    seen[r] = true;
  }
}

std::unique_ptr<BatchHeuristic> make_min_min() {
  return std::make_unique<MinMaxMin>(false);
}
std::unique_ptr<BatchHeuristic> make_max_min() {
  return std::make_unique<MinMaxMin>(true);
}
std::unique_ptr<BatchHeuristic> make_sufferage() {
  return std::make_unique<Sufferage>();
}
std::unique_ptr<BatchHeuristic> make_duplex() {
  return std::make_unique<Duplex>();
}

std::unique_ptr<ImmediateHeuristic> make_immediate(const std::string& name) {
  if (name == "olb") return make_olb();
  if (name == "met") return make_met();
  if (name == "mct") return make_mct();
  if (name == "kpb") return make_kpb();
  if (name == "switching") return make_switching();
  GT_REQUIRE(false, "unknown immediate heuristic: " + name);
  return nullptr;
}

std::unique_ptr<BatchHeuristic> make_batch(const std::string& name) {
  if (name == "min-min") return make_min_min();
  if (name == "max-min") return make_max_min();
  if (name == "sufferage") return make_sufferage();
  if (name == "duplex") return make_duplex();
  if (name == "genetic") return make_genetic();
  if (name == "annealing") return make_annealing();
  if (name == "tabu") return make_tabu();
  GT_REQUIRE(false, "unknown batch heuristic: " + name);
  return nullptr;
}

std::vector<std::string> immediate_heuristic_names() {
  return {"olb", "met", "mct", "kpb", "switching"};
}

std::vector<std::string> batch_heuristic_names() {
  return {"min-min", "max-min", "sufferage", "duplex", "genetic",
          "annealing", "tabu"};
}

}  // namespace gridtrust::sched
