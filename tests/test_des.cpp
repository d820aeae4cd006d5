// Tests for the discrete-event simulation kernel and arrival processes.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "des/arrival.hpp"
#include "des/simulator.hpp"

namespace gridtrust::des {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Simulator, RejectsPastEvents) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), PreconditionError);
}

TEST(Simulator, RejectsEmptyAction) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), PreconditionError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterExecutionFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelFromWithinEvent) {
  Simulator sim;
  bool second_ran = false;
  const EventId victim = sim.schedule_at(2.0, [&] { second_ran = true; });
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  sim.run();
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  const EventId id = sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, StepReturnsFalseOnEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, MaxEventsGuardStopsRunawayChains) {
  Simulator sim;
  std::function<void()> self = [&] { sim.schedule_in(1.0, self); };
  sim.schedule_at(0.0, self);
  sim.run(/*max_events=*/100);
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(Simulator, EventsScheduledDuringExecutionRun) {
  Simulator sim;
  int depth = 0;
  std::function<void(int)> nest = [&](int d) {
    depth = d;
    if (d < 5) sim.schedule_in(1.0, [&, d] { nest(d + 1); });
  };
  sim.schedule_at(0.0, [&] { nest(1); });
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4.0);
}

// ---------------------------------------------------------------- arrivals

/// Deterministic arrivals every `gap` seconds, for driving drive_arrivals.
class EveryGap final : public ArrivalProcess {
 public:
  explicit EveryGap(SimTime gap) : gap_(gap) {}
  SimTime next_gap() override { return gap_; }

 private:
  SimTime gap_;
};

TEST(PoissonArrivals, GapsHaveExponentialMean) {
  PoissonArrivals arrivals(2.0, Rng(5));
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(arrivals.next_gap());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  // Exponential: stddev == mean.
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  EXPECT_THROW(PoissonArrivals(0.0, Rng(1)), PreconditionError);
}

TEST(DriveArrivals, SchedulesCountEventsInOrder) {
  Simulator sim;
  EveryGap arrivals(1.0);
  std::vector<std::size_t> seen;
  std::vector<double> times;
  drive_arrivals(sim, arrivals, 5, [&](std::size_t i, SimTime t) {
    seen.push_back(i);
    times.push_back(t);
  });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(times, (std::vector<double>{1, 2, 3, 4, 5}));
}

TEST(DriveArrivals, CallbackOutlivesCall) {
  Simulator sim;
  EveryGap arrivals(1.0);
  int count = 0;
  {
    // The callback goes out of scope before run(); drive_arrivals must have
    // copied it.
    std::function<void(std::size_t, SimTime)> cb =
        [&count](std::size_t, SimTime) { ++count; };
    drive_arrivals(sim, arrivals, 3, cb);
  }
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(DriveArrivals, PoissonArrivalTimesAreMonotone) {
  Simulator sim;
  PoissonArrivals arrivals(1.0, Rng(11));
  double last = 0.0;
  bool monotone = true;
  drive_arrivals(sim, arrivals, 1000, [&](std::size_t, SimTime t) {
    if (t < last) monotone = false;
    last = t;
  });
  sim.run();
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace gridtrust::des
