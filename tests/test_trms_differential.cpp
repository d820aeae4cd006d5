// Seeded randomized differential test for the event-driven TRMS.
//
// sim::run_trms walks the arrivals and batch ticks in a next-event loop,
// with no event queue.  This test replays random problems through an
// in-test copy of the earlier kernel-driven loop, which scheduled every
// arrival up front on a des::Simulator (so an arrival exactly on a batch
// tick, scheduled before the tick, always joined that tick's batch), and
// requires the same placements, start and completion times bit for bit,
// the same number of batches and of events, and the same makespan,
// utilization, mean flow time and flow-time percentiles bit for bit
// (recomputed here from the reference's schedule).
//
// Manifests cannot show a wrong successor rule: the catalog's Poisson
// arrivals never land on a tick.  The arrival shapes here are the ones
// that can: all at time 0, exactly on tick times (as the kernel sums them
// and as integer multiples), duplicates, unsorted times, and sorted
// Poisson arrivals.  Each seed also replays its costs with arrivals at 0
// and after an idle gap of 60 to 1000 intervals (so batch mode fires at
// least 50 empty ticks in a row), and a one-request problem.  Every input
// runs all five immediate and the four paper-style batch heuristics under
// both paper policies.  A divergence reports the failing seed.  1000 seeds
// take about 0.5 s in Release and 19 s in a Debug ASan/UBSan build on a
// 4-vCPU host; ctest stops the test after 120 s.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "des/simulator.hpp"
#include "sched/executor.hpp"
#include "sched/heuristic.hpp"
#include "sched/problem.hpp"
#include "sched/schedule.hpp"
#include "sched/security_model.hpp"
#include "sim/trm_simulation.hpp"

namespace gridtrust::sim {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kSeeds = 1000;

struct Outcome {
  sched::Schedule schedule;
  std::size_t batches = 0;
  std::uint64_t events = 0;
};

/// The up-front loop: every arrival is scheduled before the run starts,
/// and the batch tick reschedules itself until every request is
/// dispatched.
Outcome run_up_front(const sched::SchedulingProblem& problem,
                     const TrmsConfig& config) {
  des::Simulator sim;
  Outcome out;
  out.schedule = sched::Schedule::for_problem(problem);
  if (config.mode == SchedulingMode::kImmediate) {
    auto heuristic = sched::make_immediate(config.heuristic);
    heuristic->reset();
    for (std::size_t r = 0; r < problem.num_requests(); ++r) {
      sim.schedule_at(problem.arrival_time(r), [&, r] {
        const std::size_t m = sched::select_machine_instrumented(
            *heuristic, problem, r, sim.now(), out.schedule);
        sched::commit_assignment(problem, r, m, sim.now(), out.schedule);
      });
    }
    sim.run();
    out.events = sim.executed_events();
    return out;
  }
  auto heuristic = sched::make_batch(config.heuristic);
  std::vector<std::size_t> queue;
  std::size_t dispatched = 0;
  for (std::size_t r = 0; r < problem.num_requests(); ++r) {
    sim.schedule_at(problem.arrival_time(r), [&, r] { queue.push_back(r); });
  }
  std::function<void()> tick = [&] {
    if (!queue.empty()) {
      ++out.batches;
      dispatched += queue.size();
      sched::map_batch_instrumented(*heuristic, problem, queue, sim.now(),
                                    out.schedule);
      queue.clear();
    }
    if (dispatched < problem.num_requests()) {
      sim.schedule_in(config.batch_interval, [&tick] { tick(); });
    }
  };
  sim.schedule_in(config.batch_interval, [&tick] { tick(); });
  sim.run();
  out.events = sim.executed_events();
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Makespan, utilization, mean flow time and the flow-time p50 and p95 of
/// a schedule, computed as SimulationResult defines them.
std::vector<double> outcome_scalars(const sched::SchedulingProblem& problem,
                                    const sched::Schedule& schedule) {
  std::vector<double> flows;
  for (std::size_t r = 0; r < problem.num_requests(); ++r) {
    flows.push_back(schedule.completion[r] - problem.arrival_time(r));
  }
  return {schedule.makespan(), schedule.utilization_pct(),
          schedule.mean_flow_time(problem), percentile(flows, 50.0),
          percentile(flows, 95.0)};
}

void expect_same(const sched::SchedulingProblem& problem,
                 const TrmsConfig& config) {
  SCOPED_TRACE(config.heuristic);
  const SimulationResult got = run_trms(problem, config);
  const Outcome want = run_up_front(problem, config);
  ASSERT_EQ(got.schedule.machine_of, want.schedule.machine_of);
  ASSERT_TRUE(same_bits(got.schedule.start, want.schedule.start));
  ASSERT_TRUE(same_bits(got.schedule.completion, want.schedule.completion));
  ASSERT_EQ(got.batches, want.batches);
  ASSERT_EQ(got.events, want.events);
  ASSERT_TRUE(same_bits({got.makespan, got.utilization_pct,
                         got.mean_flow_time, got.flow_time_p50,
                         got.flow_time_p95},
                        outcome_scalars(problem, want.schedule)));
}

/// The times the kernel fires batch ticks at: each one interval after the
/// last, summed in doubles exactly as the kernel sums them.
std::vector<double> tick_times(double interval, std::size_t count) {
  std::vector<double> out;
  double t = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    t = t + interval;
    out.push_back(t);
  }
  return out;
}

std::vector<double> random_arrivals(Rng& rng, std::size_t n,
                                    double interval) {
  std::vector<double> out(n, 0.0);
  const std::vector<double> ticks = tick_times(interval, 8);
  switch (rng.index(6)) {
    case 0:  // all at time 0
      break;
    case 1:  // exactly on the kernel's tick times, in order
      for (double& t : out) t = ticks[rng.index(ticks.size())];
      std::sort(out.begin(), out.end());
      break;
    case 2:  // integer multiples of the interval, unsorted
      for (double& t : out) {
        t = static_cast<double>(rng.uniform_int(0, 8)) * interval;
      }
      break;
    case 3:  // duplicates of a few values, ticks among them
      for (double& t : out) {
        t = rng.bernoulli(0.5) ? ticks[rng.index(3)]
                               : static_cast<double>(rng.uniform_int(0, 3));
      }
      break;
    case 4:  // unsorted, continuous
      for (double& t : out) t = rng.uniform(0.0, 8.0 * interval);
      break;
    default: {  // sorted Poisson arrivals, as the workload draws them
      double t = 0.0;
      for (double& a : out) {
        t += rng.exponential(interval / 2.0);
        a = t;
      }
    }
  }
  return out;
}

/// Arrivals at time 0 and after an idle gap of 60 to 1000 intervals: batch
/// mode fires at least 50 empty ticks in a row before the late batch, and
/// the first and last requests pin both ends when there are two or more.
std::vector<double> idle_gap_arrivals(Rng& rng, std::size_t n,
                                      double interval) {
  const double late =
      static_cast<double>(rng.uniform_int(60, 1000)) * interval;
  std::vector<double> out(n, 0.0);
  for (double& t : out) t = rng.bernoulli(0.5) ? late : 0.0;
  out.front() = 0.0;
  out.back() = late;
  return out;
}

/// Runs every immediate and paper-style batch heuristic on `unaware` and on
/// its trust-aware twin against the up-front loop.
void replay_problem(const sched::SchedulingProblem& unaware,
                    double interval) {
  const sched::SchedulingProblem aware =
      unaware.with_policy(sched::trust_aware_policy());
  for (const sched::SchedulingProblem* problem : {&unaware, &aware}) {
    SCOPED_TRACE(problem == &aware ? "trust-aware" : "trust-unaware");
    TrmsConfig config;
    config.mode = SchedulingMode::kImmediate;
    for (const std::string& name : sched::immediate_heuristic_names()) {
      config.heuristic = name;
      ASSERT_NO_FATAL_FAILURE(expect_same(*problem, config));
    }
    config.mode = SchedulingMode::kBatch;
    config.batch_interval = interval;
    for (const char* name : {"min-min", "max-min", "sufferage", "duplex"}) {
      config.heuristic = name;
      ASSERT_NO_FATAL_FAILURE(expect_same(*problem, config));
    }
  }
}

void replay_seed(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 1 + rng.index(40);  // 1..40 requests
  const std::size_t m = 1 + rng.index(6);   // 1..6 machines
  sched::CostMatrix eec(n, m);
  sched::TrustCostMatrix tc(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < m; ++j) {
      eec.at(r, j) = rng.bernoulli(0.5)
                         ? static_cast<double>(rng.uniform_int(1, 4))
                         : rng.uniform(0.1, 6.0);
      tc.at(r, j) = static_cast<int>(rng.uniform_int(0, 6));
    }
  }
  constexpr double kIntervals[] = {0.1, 0.5, 1.0, 2.5, 3.0};
  const double interval = kIntervals[rng.index(std::size(kIntervals))];
  SCOPED_TRACE("batch interval " + std::to_string(interval) + " s");
  const auto unaware = [&](std::vector<double> arrivals) {
    return sched::SchedulingProblem(eec, tc, sched::trust_unaware_policy(),
                                    sched::SecurityCostModel{},
                                    std::move(arrivals));
  };
  {
    SCOPED_TRACE("random arrivals");
    ASSERT_NO_FATAL_FAILURE(
        replay_problem(unaware(random_arrivals(rng, n, interval)), interval));
  }
  {
    SCOPED_TRACE("idle gap");
    ASSERT_NO_FATAL_FAILURE(replay_problem(
        unaware(idle_gap_arrivals(rng, n, interval)), interval));
  }
  SCOPED_TRACE("one request");
  sched::CostMatrix eec1(1, m);
  sched::TrustCostMatrix tc1(1, m);
  for (std::size_t j = 0; j < m; ++j) {
    eec1.at(0, j) = eec.at(0, j);
    tc1.at(0, j) = tc.at(0, j);
  }
  ASSERT_NO_FATAL_FAILURE(replay_problem(
      sched::SchedulingProblem(eec1, tc1, sched::trust_unaware_policy(),
                               sched::SecurityCostModel{},
                               random_arrivals(rng, 1, interval)),
      interval));
}

TEST(TrmsDifferential, MatchesTheUpFrontScheduleOnRandomArrivals) {
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    try {
      replay_seed(seed);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "unexpected exception: " << error.what();
    }
    if (HasFailure()) {
      ADD_FAILURE() << "run_trms diverged from the up-front schedule at seed "
                    << seed;
      break;
    }
  }
}

}  // namespace
}  // namespace gridtrust::sim
