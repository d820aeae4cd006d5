// Seeded randomized differential test for the scheduling heuristics.
//
// SchedulingProblem prices every (request, machine) pair once into decision
// and actual cost rows; MCT and the batch heuristics walk those rows, and
// Min-min/Max-min keep each pending request's best choice between commits,
// rescanning only the requests whose best machine was just committed to.
// This test replays random problems through in-test copies of the plain
// scans — each cost priced by SecurityCostModel::ecc plus the extra layer
// on every call, every pending request rescanned after every commit — and
// requires identical schedules (==, not a tolerance) and bit-equal cost
// rows.  Small integer EEC and trust costs make completion ties frequent,
// so the lowest-index tie-breaks are exercised.  A divergence reports the
// failing seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/heuristic.hpp"
#include "sched/problem.hpp"
#include "sched/schedule.hpp"
#include "sched/security_model.hpp"

namespace gridtrust::sched {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kSeeds = 1000;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// What a problem is built from, kept so the reference prices every cost
/// itself.
struct Inputs {
  CostMatrix eec;
  TrustCostMatrix tc;
  SecurityCostModel model;
  std::vector<double> arrivals;  // empty = all zero
  CostMatrix extra_decision;     // 0x0 when unused
  CostMatrix extra_actual;
};

struct BestChoice {
  std::size_t machine = 0;
  double completion = kInf;
  double second_completion = kInf;
};

/// The plain scans: costs from the formula on every call, a full rescan of
/// every pending request after every commit.
class Reference {
 public:
  Reference(Inputs inputs, SchedulingPolicy policy)
      : in_(std::move(inputs)), policy_(std::move(policy)) {}

  double decision_cost(std::size_t r, std::size_t m) const {
    double cost =
        in_.model.ecc(policy_.decision, in_.eec.get(r, m), in_.tc.get(r, m));
    if (in_.extra_decision.rows() != 0) cost += in_.extra_decision.get(r, m);
    return cost;
  }

  double actual_cost(std::size_t r, std::size_t m) const {
    double cost =
        in_.model.ecc(policy_.actual, in_.eec.get(r, m), in_.tc.get(r, m));
    if (in_.extra_actual.rows() != 0) cost += in_.extra_actual.get(r, m);
    return cost;
  }

  void commit(std::size_t r, std::size_t m, double ready, Schedule& s) const {
    const double begin = std::max({s.machine_available[m], ready, arrival(r)});
    const double cost = actual_cost(r, m);
    s.machine_of[r] = m;
    s.start[r] = begin;
    s.completion[r] = begin + cost;
    s.machine_available[m] = begin + cost;
    s.machine_busy[m] += cost;
  }

  std::size_t mct(std::size_t r, double ready, const Schedule& s) const {
    std::size_t best = 0;
    double best_ct = completion(r, 0, ready, s);
    for (std::size_t m = 1; m < machines(); ++m) {
      const double ct = completion(r, m, ready, s);
      if (ct < best_ct) {
        best_ct = ct;
        best = m;
      }
    }
    return best;
  }

  void map_batch(const std::string& name,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& s) const {
    if (name == "min-min" || name == "max-min") {
      min_max_min(name == "max-min", batch, ready, s);
    } else if (name == "sufferage") {
      sufferage(batch, ready, s);
    } else {
      ASSERT_EQ(name, "duplex");
      Schedule with_min = s;
      Schedule with_max = s;
      min_max_min(false, batch, ready, with_min);
      min_max_min(true, batch, ready, with_max);
      s = (with_min.makespan() <= with_max.makespan()) ? with_min : with_max;
    }
  }

 private:
  std::size_t machines() const { return in_.eec.cols(); }

  double arrival(std::size_t r) const {
    return in_.arrivals.empty() ? 0.0 : in_.arrivals[r];
  }

  double completion(std::size_t r, std::size_t m, double ready,
                    const Schedule& s) const {
    return std::max({s.machine_available[m], ready, arrival(r)}) +
           decision_cost(r, m);
  }

  BestChoice best_choice(std::size_t r, double ready,
                         const Schedule& s) const {
    BestChoice out;
    for (std::size_t m = 0; m < machines(); ++m) {
      const double ct = completion(r, m, ready, s);
      if (ct < out.completion) {
        out.second_completion = out.completion;
        out.completion = ct;
        out.machine = m;
      } else if (ct < out.second_completion) {
        out.second_completion = ct;
      }
    }
    return out;
  }

  void min_max_min(bool prefer_max, const std::vector<std::size_t>& batch,
                   double ready, Schedule& s) const {
    std::vector<std::size_t> pending = batch;
    while (!pending.empty()) {
      std::size_t pick_pos = 0;
      BestChoice pick = best_choice(pending[0], ready, s);
      for (std::size_t i = 1; i < pending.size(); ++i) {
        const BestChoice c = best_choice(pending[i], ready, s);
        const bool better = prefer_max ? c.completion > pick.completion
                                       : c.completion < pick.completion;
        if (better) {
          pick = c;
          pick_pos = i;
        }
      }
      commit(pending[pick_pos], pick.machine, ready, s);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    }
  }

  void sufferage(const std::vector<std::size_t>& batch, double ready,
                 Schedule& s) const {
    std::vector<std::size_t> pending = batch;
    while (!pending.empty()) {
      std::vector<std::size_t> holder(machines(), kUnassigned);
      std::vector<double> holder_sufferage(machines(), -kInf);
      std::vector<std::size_t> deferred;
      for (const std::size_t r : pending) {
        const BestChoice c = best_choice(r, ready, s);
        const double value = (c.second_completion == kInf)
                                 ? 0.0
                                 : c.second_completion - c.completion;
        const std::size_t m = c.machine;
        if (holder[m] == kUnassigned) {
          holder[m] = r;
          holder_sufferage[m] = value;
        } else if (value > holder_sufferage[m]) {
          deferred.push_back(holder[m]);
          holder[m] = r;
          holder_sufferage[m] = value;
        } else {
          deferred.push_back(r);
        }
      }
      for (std::size_t m = 0; m < machines(); ++m) {
        if (holder[m] != kUnassigned) commit(holder[m], m, ready, s);
      }
      pending = std::move(deferred);
    }
  }

  Inputs in_;
  SchedulingPolicy policy_;
};

SchedulingPolicy random_policy(Rng& rng) {
  switch (rng.index(4)) {
    case 0:
      return trust_aware_policy();
    case 1:
      return trust_unaware_policy();
    case 2:
      return unaware_placement_tc_priced_policy();
    default:
      return aware_placement_blanket_priced_policy();
  }
}

/// Extra cost layer in half-second steps, zeros included.
CostMatrix random_extra(Rng& rng, std::size_t n, std::size_t m) {
  CostMatrix out(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < m; ++j) {
      out.at(r, j) = 0.5 * static_cast<double>(rng.uniform_int(0, 4));
    }
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every precomputed entry is bit-equal to the formula.
void expect_rows(const SchedulingProblem& p, const Reference& ref,
                 const char* stage) {
  SCOPED_TRACE(stage);
  for (std::size_t r = 0; r < p.num_requests(); ++r) {
    for (std::size_t m = 0; m < p.num_machines(); ++m) {
      ASSERT_TRUE(same_bits(p.decision_cost(r, m), ref.decision_cost(r, m)))
          << "decision_cost(" << r << ", " << m << ")";
      ASSERT_TRUE(same_bits(p.decision_row(r)[m], ref.decision_cost(r, m)))
          << "decision_row(" << r << ")[" << m << "]";
      ASSERT_TRUE(same_bits(p.actual_cost(r, m), ref.actual_cost(r, m)))
          << "actual_cost(" << r << ", " << m << ")";
    }
  }
}

void expect_same_schedule(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.machine_of, want.machine_of);
  ASSERT_EQ(got.start, want.start);
  ASSERT_EQ(got.completion, want.completion);
  ASSERT_EQ(got.machine_available, want.machine_available);
  ASSERT_EQ(got.machine_busy, want.machine_busy);
}

/// Maps 1-3 batches of a random request order, at non-decreasing ready
/// times, into one schedule with every batch heuristic, and every request
/// one at a time with MCT.
void compare_heuristics(const SchedulingProblem& p, const Reference& ref,
                        Rng& rng) {
  const std::size_t n = p.num_requests();
  std::vector<std::size_t> order(n);
  for (std::size_t r = 0; r < n; ++r) order[r] = r;
  rng.shuffle(order);
  const std::size_t batches = 1 + rng.index(3);
  std::vector<std::vector<std::size_t>> batch(batches);
  for (const std::size_t r : order) batch[rng.index(batches)].push_back(r);
  std::vector<double> ready(batches);
  double now = static_cast<double>(rng.uniform_int(0, 3));
  for (double& t : ready) {
    t = now;
    now += static_cast<double>(rng.uniform_int(0, 4));
  }

  for (const std::string name : {"min-min", "max-min", "sufferage", "duplex"}) {
    SCOPED_TRACE(name);
    const auto heuristic = make_batch(name);
    Schedule got = Schedule::for_problem(p);
    Schedule want = Schedule::for_problem(p);
    for (std::size_t b = 0; b < batches; ++b) {
      heuristic->map_batch(p, batch[b], ready[b], got);
      ASSERT_NO_FATAL_FAILURE(ref.map_batch(name, batch[b], ready[b], want));
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_schedule(got, want));
  }

  SCOPED_TRACE("mct");
  const auto mct = make_mct();
  Schedule got = Schedule::for_problem(p);
  Schedule want = Schedule::for_problem(p);
  double t = 0.0;
  for (const std::size_t r : order) {
    t += static_cast<double>(rng.uniform_int(0, 2));
    const std::size_t m = mct->select_machine(p, r, t, got);
    ASSERT_EQ(m, ref.mct(r, t, want)) << "request " << r;
    commit_assignment(p, r, m, t, got);
    ref.commit(r, m, t, want);
  }
  ASSERT_NO_FATAL_FAILURE(expect_same_schedule(got, want));
}

void replay_seed(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 1 + rng.index(40);  // 1..40 requests
  const std::size_t m = 1 + rng.index(8);   // 1..8 machines
  Inputs in{CostMatrix(n, m), TrustCostMatrix(n, m), SecurityCostModel{},
            {}, {}, {}};
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < m; ++j) {
      in.eec.at(r, j) = static_cast<double>(rng.uniform_int(1, 4));
      in.tc.at(r, j) = static_cast<int>(rng.uniform_int(0, 6));
    }
  }
  SecurityCostConfig config;
  config.tc_weight_pct = static_cast<double>(rng.uniform_int(0, 4)) * 5.0;
  config.blanket_pct = static_cast<double>(rng.uniform_int(2, 6)) * 10.0;
  in.model = SecurityCostModel(config);
  if (rng.bernoulli(0.8)) {
    // Repeated whole-second arrivals; many land after a batch's ready time.
    for (std::size_t r = 0; r < n; ++r) {
      in.arrivals.push_back(static_cast<double>(rng.uniform_int(0, 6)));
    }
  }

  const SchedulingPolicy first = random_policy(rng);
  SchedulingProblem p(in.eec, in.tc, first, in.model, in.arrivals);
  ASSERT_NO_FATAL_FAILURE(expect_rows(p, Reference(in, first), "construct"));
  if (rng.bernoulli(0.5)) {
    in.extra_decision = random_extra(rng, n, m);
    in.extra_actual = random_extra(rng, n, m);
    p.set_extra_costs(in.extra_decision, in.extra_actual);
    ASSERT_NO_FATAL_FAILURE(
        expect_rows(p, Reference(in, first), "set_extra_costs"));
  }
  const Reference ref_p(in, first);

  const SchedulingPolicy second = random_policy(rng);
  SchedulingProblem q = p.with_policy(second);
  ASSERT_NO_FATAL_FAILURE(expect_rows(q, Reference(in, second), "with_policy"));
  ASSERT_NO_FATAL_FAILURE(expect_rows(p, ref_p, "with_policy source"));
  if (rng.bernoulli(0.3)) {
    in.extra_decision = random_extra(rng, n, m);
    in.extra_actual = random_extra(rng, n, m);
    q.set_extra_costs(in.extra_decision, in.extra_actual);
    ASSERT_NO_FATAL_FAILURE(expect_rows(
        q, Reference(in, second), "set_extra_costs after with_policy"));
  }
  const Reference ref_q(in, second);

  ASSERT_NO_FATAL_FAILURE(compare_heuristics(p, ref_p, rng));
  ASSERT_NO_FATAL_FAILURE(compare_heuristics(q, ref_q, rng));
}

TEST(SchedDifferential, MatchesPlainScansOnRandomProblems) {
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    try {
      replay_seed(seed);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "unexpected exception: " << error.what();
    }
    if (HasFailure()) {
      ADD_FAILURE() << "heuristics diverged from the plain scans at seed "
                    << seed;
      break;
    }
  }
}

}  // namespace
}  // namespace gridtrust::sched
