// Conformance and regression suite for the calendar-queue DES kernel
// rework (see docs/performance.md):
//   - CalendarQueue must reproduce the old binary heap's pop order exactly
//     (ReferenceHeapQueue is the frozen executable spec) across randomized
//     workloads, timestamp collisions, resizes, and far-future rollover;
//   - ObjectPool handles must survive reuse/reset with generation checks;
//   - InlineAction must store, relocate, and destroy closures correctly;
//   - the grid-scale driver must produce identical digests on the new and
//     the pre-rework kernel, and identical results from inside a thread
//     pool worker (the nested-parallel_for no-deadlock guarantee).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "des/event_queue.hpp"
#include "des/reference_kernel.hpp"
#include "des/scale.hpp"
#include "des/simulator.hpp"

namespace gridtrust::des {
namespace {

// ------------------------------------------------- queue conformance

/// The simulator drains the calendar through pop_if_at_most, unbounded
/// (step) or bounded; an infinite bound pops any minimum.
constexpr SimTime kNoBound = std::numeric_limits<SimTime>::infinity();

/// Pops everything from both queues (staged with the same nodes) and
/// requires identical sequences.  ReferenceHeapQueue ignores the intrusive
/// link, so the same node can sit in both queues at once.
void expect_same_drain(CalendarQueue& calendar, ReferenceHeapQueue& heap) {
  ASSERT_EQ(calendar.size(), heap.size());
  while (!heap.empty()) {
    EventNode* expected = heap.pop();
    EventNode* got = calendar.pop_if_at_most(kNoBound);
    ASSERT_EQ(got, expected)
        << "divergence at seq " << expected->seq << " time "
        << expected->time;
    got->next = nullptr;  // re-stage-able
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.pop_if_at_most(kNoBound), nullptr);
}

std::vector<EventNode> make_nodes(std::size_t n) {
  std::vector<EventNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].seq = i;
    nodes[i].self = static_cast<PoolHandle>(i + 1);
  }
  return nodes;
}

TEST(CalendarConformance, RandomizedWorkloadsMatchTheHeap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(derive_seed(seed, {0xc0fe}));
    std::vector<EventNode> nodes = make_nodes(2000);
    CalendarQueue calendar;
    ReferenceHeapQueue heap;
    for (auto& node : nodes) {
      // Mixed regimes: dense cluster, uniform spread, sparse far tail.
      const double pick = rng.uniform(0.0, 1.0);
      if (pick < 0.4) {
        node.time = rng.uniform(0.0, 1.0);
      } else if (pick < 0.9) {
        node.time = rng.uniform(0.0, 1e4);
      } else {
        node.time = rng.uniform(1e12, 1e15);
      }
      calendar.push(&node);
      heap.push(&node);
    }
    expect_same_drain(calendar, heap);
  }
}

TEST(CalendarConformance, InterleavedPushPopMatchesTheHeap) {
  Rng rng(99);
  std::vector<EventNode> nodes = make_nodes(4000);
  CalendarQueue calendar;
  ReferenceHeapQueue heap;
  std::size_t next = 0;
  double low_bound = 0.0;  // popped times are the floor for new pushes
  while (next < nodes.size() || !heap.empty()) {
    const bool can_push = next < nodes.size();
    if (can_push && (heap.empty() || rng.uniform(0.0, 1.0) < 0.55)) {
      EventNode& node = nodes[next++];
      node.time = low_bound + rng.exponential(3.0);
      calendar.push(&node);
      heap.push(&node);
    } else {
      EventNode* expected = heap.pop();
      EventNode* got = calendar.pop_if_at_most(kNoBound);
      ASSERT_EQ(got, expected);
      got->next = nullptr;
      low_bound = expected->time;
    }
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarConformance, TimestampCollisionsPopInScheduleOrder) {
  std::vector<EventNode> nodes = make_nodes(512);
  CalendarQueue calendar;
  // Four distinct times, each shared by 128 events pushed out of order.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].time = static_cast<double>(i % 4) * 10.0;
    calendar.push(&nodes[i]);
  }
  std::uint64_t last_seq = 0;
  double last_time = -1.0;
  while (EventNode* node = calendar.pop_if_at_most(kNoBound)) {
    if (node->time == last_time) {
      EXPECT_LT(last_seq, node->seq) << "FIFO tie-break violated";
    } else {
      EXPECT_LT(last_time, node->time);
    }
    last_time = node->time;
    last_seq = node->seq;
  }
}

TEST(CalendarConformance, EarlierPushAfterFarFutureScanRewindsTheCursor) {
  std::vector<EventNode> nodes = make_nodes(3);
  CalendarQueue calendar;
  nodes[0].time = 1e9;
  calendar.push(&nodes[0]);
  // The cursor jumps far ahead.
  EXPECT_EQ(calendar.pop_if_at_most(kNoBound), &nodes[0]);
  nodes[0].next = nullptr;
  nodes[1].time = 2e9;
  calendar.push(&nodes[1]);
  nodes[2].time = 1.0;  // earlier than the cursor: push must rewind
  calendar.push(&nodes[2]);
  EXPECT_EQ(calendar.pop_if_at_most(kNoBound), &nodes[2]);
  EXPECT_EQ(calendar.pop_if_at_most(kNoBound), &nodes[1]);
}

TEST(CalendarConformance, ResizeAndRolloverEdges) {
  // Growth through several resizes with adversarial times: zero, denormal
  // gaps, huge magnitudes, and +infinity all keep strict order.
  std::vector<EventNode> nodes = make_nodes(1500);
  CalendarQueue calendar;
  ReferenceHeapQueue heap;
  Rng rng(7);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    switch (i % 5) {
      case 0: nodes[i].time = 0.0; break;
      case 1: nodes[i].time = rng.uniform(0.0, 1e-9); break;
      case 2: nodes[i].time = rng.uniform(0.0, 1e300); break;
      case 3: nodes[i].time = std::numeric_limits<double>::infinity(); break;
      default: nodes[i].time = rng.uniform(1e6, 2e6); break;
    }
    calendar.push(&nodes[i]);
    heap.push(&nodes[i]);
  }
  EXPECT_GE(calendar.resizes(), 1u);
  expect_same_drain(calendar, heap);
}

TEST(CalendarConformance, PopIfAtMostHonorsTheBound) {
  std::vector<EventNode> nodes = make_nodes(10);
  CalendarQueue calendar;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].time = static_cast<double>(i);
    calendar.push(&nodes[i]);
  }
  EXPECT_EQ(calendar.pop_if_at_most(-1.0), nullptr);
  EXPECT_EQ(calendar.pop_if_at_most(3.5), &nodes[0]);
  nodes[0].next = nullptr;
  EXPECT_EQ(calendar.size(), 9u);
  EXPECT_EQ(calendar.pop_if_at_most(0.5), nullptr);  // min is now 1.0
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_EQ(calendar.pop_if_at_most(kNoBound), &nodes[i]);
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.pop_if_at_most(kNoBound), nullptr);
}

// ------------------------------------------------- arena / ObjectPool

struct Tracked {
  static int live;
  int value = 0;
  explicit Tracked(int v) : value(v) { ++live; }
  ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(ObjectPool, ReusesSlotsWithFreshGenerations) {
  ObjectPool<Tracked> pool(16);
  const PoolHandle a = pool.allocate(1);
  EXPECT_TRUE(pool.valid(a));
  EXPECT_EQ(pool.get(a).value, 1);
  pool.release(a);
  EXPECT_FALSE(pool.valid(a)) << "stale handle must go invalid";
  const PoolHandle b = pool.allocate(2);
  EXPECT_NE(a, b) << "recycled slot must carry a new generation";
  EXPECT_TRUE(pool.valid(b));
  EXPECT_FALSE(pool.valid(a));
  EXPECT_EQ(pool.capacity(), 1u) << "slot must be recycled, not appended";
  EXPECT_THROW(pool.release(a), PreconditionError);
  pool.release(b);
  EXPECT_EQ(Tracked::live, 0);
}

TEST(ObjectPool, NullHandleIsNeverValid) {
  ObjectPool<Tracked> pool;
  EXPECT_FALSE(pool.valid(kNullPoolHandle));
  EXPECT_FALSE(pool.valid(12345));
}

TEST(ObjectPool, ResetDestroysLiveObjectsAndKeepsSlabs) {
  ObjectPool<Tracked> pool(8);
  std::vector<PoolHandle> handles;
  for (int i = 0; i < 20; ++i) handles.push_back(pool.allocate(i));
  EXPECT_EQ(Tracked::live, 20);
  EXPECT_EQ(pool.slabs(), 3u);  // ceil(20 / 8)
  pool.release(handles[7]);
  pool.release(handles[3]);
  pool.reset();
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.slabs(), 3u) << "reset keeps slab storage warm";
  for (const PoolHandle h : handles) EXPECT_FALSE(pool.valid(h));
  // Post-reset allocation order is deterministic front-to-back, regardless
  // of the pre-reset release pattern.
  const PoolHandle first = pool.allocate(100);
  const PoolHandle second = pool.allocate(101);
  EXPECT_EQ(first & 0xffffffffu, 1u);
  EXPECT_EQ(second & 0xffffffffu, 2u);
}

// ------------------------------------------------- InlineAction

TEST(InlineAction, StoresSmallCallablesInline) {
  InlineAction action;
  EXPECT_TRUE(action.empty());
  int hits = 0;
  action.emplace([&hits] { ++hits; });
  EXPECT_FALSE(action.empty());
  action.invoke();
  action.invoke();
  EXPECT_EQ(hits, 2);
  action.reset();
  EXPECT_TRUE(action.empty());
}

TEST(InlineAction, RelocatesAndDestroysExactlyOnce) {
  struct Probe {
    int* destroyed;
    int* calls;
    explicit Probe(int* d, int* c) : destroyed(d), calls(c) {}
    Probe(Probe&& other) noexcept
        : destroyed(other.destroyed), calls(other.calls) {
      other.destroyed = nullptr;
      other.calls = nullptr;
    }
    ~Probe() {
      if (destroyed != nullptr) ++*destroyed;
    }
    void operator()() const { ++*calls; }
  };
  int destroyed = 0;
  int calls = 0;
  {
    InlineAction a;
    a.emplace(Probe(&destroyed, &calls));
    InlineAction b;
    a.relocate_to(b);
    EXPECT_TRUE(a.empty());
    b.invoke();
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1) << "moved-from husks must not double-destroy";
}

TEST(InlineAction, OversizedCapturesFallBackToStdFunction) {
  struct Big {
    double payload[16];  // 128 B, well past kBufSize
  };
  Big big{};
  big.payload[0] = 42.0;
  double seen = 0.0;
  InlineAction action;
  action.emplace([big, &seen] { seen = big.payload[0]; });
  action.invoke();
  EXPECT_EQ(seen, 42.0);
}

// ------------------------------------------------- cross-kernel digests

TEST(ScaleConformance, NewAndOldKernelsProduceIdenticalRuns) {
  ScaleScenarioParams params;
  params.tasks = 4000;
  params.machines = 64;
  params.domains = 8;
  params.arrival_rate = 100.0;
  params.seed = 20020815;
  ScaleScenario on_new = generate_scale_scenario(params);
  ScaleScenario on_old = generate_scale_scenario(params);
  const ScaleResult fresh = run_scale_scenario(on_new);
  const ScaleResult reference = run_scale_scenario_reference(on_old);
  EXPECT_EQ(fresh.digest, reference.digest)
      << "calendar kernel diverged from the pre-rework heap kernel";
  EXPECT_EQ(fresh.events, reference.events);
  EXPECT_EQ(fresh.tasks_completed, reference.tasks_completed);
  EXPECT_EQ(fresh.tasks_completed, params.tasks);
  EXPECT_EQ(fresh.max_queue_depth, reference.max_queue_depth);
  EXPECT_EQ(fresh.makespan, reference.makespan);
}

TEST(ScaleConformance, ScenarioGenerationIsWorkerCountIndependent) {
  const ScaleScenarioParams params = small_scale();
  const ScaleScenario a = generate_scale_scenario(params);
  const ScaleScenario b = generate_scale_scenario(params);
  EXPECT_EQ(a.machine_domain, b.machine_domain);
  EXPECT_EQ(a.domain_trust, b.domain_trust);
  EXPECT_EQ(a.domain_speed, b.domain_speed);
}

TEST(ScaleConformance, GeneratorInsideAPoolWorkerDoesNotDeadlock) {
  // A sweep worker generating a scenario re-enters parallel_for; the pool
  // must fall back to inline execution instead of deadlocking on itself.
  const ScaleScenarioParams params = small_scale();
  const ScaleScenario outside = generate_scale_scenario(params);
  std::vector<ScaleScenario> inside(4);
  ThreadPool::shared().parallel_for(inside.size(), [&](std::size_t i) {
    inside[i] = generate_scale_scenario(params);
  });
  for (const ScaleScenario& s : inside) {
    EXPECT_EQ(s.machine_domain, outside.machine_domain);
    EXPECT_EQ(s.domain_trust, outside.domain_trust);
    EXPECT_EQ(s.domain_speed, outside.domain_speed);
  }
}

}  // namespace
}  // namespace gridtrust::des
