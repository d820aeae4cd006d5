// Immediate-mode (on-line) heuristics: OLB, MET, MCT, KPB, SA.
#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sched/heuristic.hpp"

namespace gridtrust::sched {

double decision_completion(const SchedulingProblem& p, std::size_t r,
                           std::size_t m, double ready,
                           const Schedule& schedule) {
  const double begin = std::max({schedule.machine_available[m], ready,
                                 p.arrival_time(r)});
  return begin + p.decision_cost(r, m);
}

namespace {

/// Machine with the minimum completion metric (lowest index wins ties):
/// one pass over r's decision-cost row with floor = max(ready, arrival).
std::size_t argmin_completion(const SchedulingProblem& p, std::size_t r,
                              double ready, const Schedule& schedule) {
  const double floor = std::max(ready, p.arrival_time(r));
  const double* cost = p.decision_row(r);
  const double* available = schedule.machine_available.data();
  std::size_t best = 0;
  double best_ct = std::max(available[0], floor) + cost[0];
  for (std::size_t m = 1; m < p.num_machines(); ++m) {
    const double ct = std::max(available[m], floor) + cost[m];
    if (ct < best_ct) {
      best_ct = ct;
      best = m;
    }
  }
  return best;
}

class Olb final : public ImmediateHeuristic {
 public:
  std::string name() const override { return "olb"; }

  std::size_t select_machine(const SchedulingProblem& p, std::size_t r,
                             double /*ready*/,
                             const Schedule& schedule) override {
    GT_REQUIRE(r < p.num_requests(), "request index out of range");
    std::size_t best = 0;
    for (std::size_t m = 1; m < p.num_machines(); ++m) {
      if (schedule.machine_available[m] < schedule.machine_available[best]) {
        best = m;
      }
    }
    return best;
  }
};

class Met final : public ImmediateHeuristic {
 public:
  std::string name() const override { return "met"; }

  std::size_t select_machine(const SchedulingProblem& p, std::size_t r,
                             double /*ready*/,
                             const Schedule& /*schedule*/) override {
    GT_REQUIRE(r < p.num_requests(), "request index out of range");
    std::size_t best = 0;
    double best_cost = p.decision_cost(r, 0);
    for (std::size_t m = 1; m < p.num_machines(); ++m) {
      const double cost = p.decision_cost(r, m);
      if (cost < best_cost) {
        best_cost = cost;
        best = m;
      }
    }
    return best;
  }
};

class Mct final : public ImmediateHeuristic {
 public:
  std::string name() const override { return "mct"; }

  std::size_t select_machine(const SchedulingProblem& p, std::size_t r,
                             double ready, const Schedule& schedule) override {
    GT_REQUIRE(r < p.num_requests(), "request index out of range");
    return argmin_completion(p, r, ready, schedule);
  }
};

class Kpb final : public ImmediateHeuristic {
 public:
  explicit Kpb(double k_pct) : k_pct_(k_pct) {
    GT_REQUIRE(k_pct > 0.0 && k_pct <= 100.0, "KPB k must be in (0, 100]");
  }

  std::string name() const override { return "kpb"; }

  std::size_t select_machine(const SchedulingProblem& p, std::size_t r,
                             double ready, const Schedule& schedule) override {
    GT_REQUIRE(r < p.num_requests(), "request index out of range");
    const std::size_t m_count = p.num_machines();
    // The k% best machines by decision cost (at least one).
    auto subset_size = static_cast<std::size_t>(
        std::ceil(static_cast<double>(m_count) * k_pct_ / 100.0));
    subset_size = std::clamp<std::size_t>(subset_size, 1, m_count);
    std::vector<std::size_t> order(m_count);
    for (std::size_t m = 0; m < m_count; ++m) order[m] = m;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return p.decision_cost(r, a) < p.decision_cost(r, b);
                     });
    std::size_t best = order[0];
    double best_ct = decision_completion(p, r, best, ready, schedule);
    for (std::size_t i = 1; i < subset_size; ++i) {
      const std::size_t m = order[i];
      const double ct = decision_completion(p, r, m, ready, schedule);
      if (ct < best_ct || (ct == best_ct && m < best)) {
        best_ct = ct;
        best = m;
      }
    }
    return best;
  }

 private:
  double k_pct_;
};

class Switching final : public ImmediateHeuristic {
 public:
  Switching(double low, double high) : low_(low), high_(high) {
    GT_REQUIRE(low >= 0.0 && low <= high && high <= 1.0,
               "switching thresholds need 0 <= low <= high <= 1");
  }

  std::string name() const override { return "switching"; }

  void reset() override { use_met_ = false; }

  std::size_t select_machine(const SchedulingProblem& p, std::size_t r,
                             double ready, const Schedule& schedule) override {
    GT_REQUIRE(r < p.num_requests(), "request index out of range");
    // Load-balance index: min(α)/max(α) in [0, 1]; 1 = perfectly balanced.
    const auto [mn, mx] = std::minmax_element(
        schedule.machine_available.begin(), schedule.machine_available.end());
    const double index = (*mx > 0.0) ? (*mn / *mx) : 1.0;
    if (index <= low_) {
      use_met_ = false;  // imbalanced: rebalance with MCT
    } else if (index >= high_) {
      use_met_ = true;  // balanced: exploit affinities with MET
    }
    if (use_met_) return met_.select_machine(p, r, ready, schedule);
    return argmin_completion(p, r, ready, schedule);
  }

 private:
  double low_;
  double high_;
  bool use_met_ = false;
  Met met_;
};

}  // namespace

std::unique_ptr<ImmediateHeuristic> make_olb() {
  return std::make_unique<Olb>();
}
std::unique_ptr<ImmediateHeuristic> make_met() {
  return std::make_unique<Met>();
}
std::unique_ptr<ImmediateHeuristic> make_mct() {
  return std::make_unique<Mct>();
}
std::unique_ptr<ImmediateHeuristic> make_kpb(double k_pct) {
  return std::make_unique<Kpb>(k_pct);
}
std::unique_ptr<ImmediateHeuristic> make_switching(double low, double high) {
  return std::make_unique<Switching>(low, high);
}

}  // namespace gridtrust::sched
