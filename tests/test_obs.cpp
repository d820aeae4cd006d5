// Tests for the observability subsystem: metric semantics, per-thread
// shard merging, exporter round-trips, the RunReport container, and the
// golden agreement between Simulator metrics and its public accessors.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "des/simulator.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace gridtrust::obs {
namespace {

/// Installs a fresh registry for the scope of one test.
class ScopedRegistry {
 public:
  ScopedRegistry() { install(&registry_); }
  ~ScopedRegistry() { install(nullptr); }
  MetricsRegistry& operator*() { return registry_; }
  MetricsRegistry* operator->() { return &registry_; }

 private:
  MetricsRegistry registry_;
};

TEST(Metrics, DisabledRecordingIsInert) {
  install(nullptr);
  const Counter counter("test.disabled_counter");
  counter.add(5.0);
  MetricsRegistry registry;
  install(&registry);
  counter.add(2.0);
  const Snapshot snap = registry.snapshot();
  install(nullptr);
  ASSERT_TRUE(snap.counters.count("test.disabled_counter"));
  EXPECT_DOUBLE_EQ(snap.counters.at("test.disabled_counter"), 2.0);
}

TEST(Metrics, CounterAccumulates) {
  ScopedRegistry registry;
  const Counter counter("test.counter_accumulates");
  counter.add();
  counter.add(2.5);
  counter.add(0.5);
  const Snapshot snap = registry->snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("test.counter_accumulates"), 4.0);
}

TEST(Metrics, GaugeIsHighWatermark) {
  ScopedRegistry registry;
  const Gauge gauge("test.gauge_watermark");
  gauge.set(3.0);
  gauge.set(10.0);
  gauge.set(7.0);  // below the watermark: ignored
  const Snapshot snap = registry->snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.gauge_watermark"), 10.0);
}

TEST(Metrics, UntouchedMetricsAreOmitted) {
  ScopedRegistry registry;
  const Counter counter("test.never_recorded");
  (void)counter;
  const Snapshot snap = registry->snapshot();
  EXPECT_EQ(snap.counters.count("test.never_recorded"), 0u);
}

TEST(Metrics, HistogramBucketsAndMoments) {
  ScopedRegistry registry;
  const Histogram hist("test.hist_buckets", {10.0, 100.0});
  hist.observe(5.0);     // bucket 0 (<= 10)
  hist.observe(10.0);    // bucket 0 (inclusive upper bound)
  hist.observe(50.0);    // bucket 1 (<= 100)
  hist.observe(1000.0);  // overflow bucket
  const Snapshot snap = registry->snapshot();
  const HistogramSnapshot& h = snap.histograms.at("test.hist_buckets");
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 1065.0);
  EXPECT_DOUBLE_EQ(h.min, 5.0);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1065.0 / 4.0);
}

TEST(Metrics, KindMismatchThrows) {
  const Counter counter("test.kind_clash");
  (void)counter;
  EXPECT_THROW(Gauge("test.kind_clash"), PreconditionError);
}

TEST(Metrics, HistogramBoundsMismatchThrows) {
  const Histogram hist("test.bounds_clash", {1.0, 2.0});
  (void)hist;
  EXPECT_THROW(Histogram("test.bounds_clash", {1.0, 3.0}),
               PreconditionError);
}

TEST(Metrics, ReinstallStartsFresh) {
  const Counter counter("test.reinstall");
  {
    ScopedRegistry registry;
    counter.add(5.0);
    EXPECT_DOUBLE_EQ(registry->snapshot().counters.at("test.reinstall"), 5.0);
  }
  {
    ScopedRegistry registry;
    counter.add(1.0);
    // The new registry must not see the previous registry's 5.0.
    EXPECT_DOUBLE_EQ(registry->snapshot().counters.at("test.reinstall"), 1.0);
  }
}

TEST(Metrics, ThreadShardsMergeAcrossPool) {
  ScopedRegistry registry;
  const Counter counter("test.pool_counter");
  const Gauge gauge("test.pool_gauge");
  const Histogram hist("test.pool_hist", count_bounds());
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 256;
  pool.parallel_for(kTasks, [&](std::size_t i) {
    counter.add();
    gauge.set(static_cast<double>(i));
    hist.observe(static_cast<double>(i % 16));
  });
  const Snapshot snap = registry->snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("test.pool_counter"),
                   static_cast<double>(kTasks));
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.pool_gauge"),
                   static_cast<double>(kTasks - 1));
  const HistogramSnapshot& h = snap.histograms.at("test.pool_hist");
  EXPECT_EQ(h.count, kTasks);
}

TEST(Metrics, SnapshotWhileRecordingIsConsistent) {
  ScopedRegistry registry;
  const Counter counter("test.live_counter");
  std::atomic<bool> stop{false};
  ThreadPool pool(2);
  pool.parallel_for(2, [&](std::size_t worker) {
    if (worker == 0) {
      for (int i = 0; i < 20000; ++i) counter.add();
      stop.store(true);
    } else {
      // Snapshot concurrently with the recording worker; counts must be
      // monotone and never exceed the final total.
      double last = 0.0;
      while (!stop.load()) {
        const Snapshot snap = registry->snapshot();
        const auto it = snap.counters.find("test.live_counter");
        const double now = it == snap.counters.end() ? 0.0 : it->second;
        EXPECT_GE(now, last);
        EXPECT_LE(now, 20000.0);
        last = now;
      }
    }
  });
  EXPECT_DOUBLE_EQ(registry->snapshot().counters.at("test.live_counter"),
                   20000.0);
}

TEST(Export, JsonContainsAllKinds) {
  ScopedRegistry registry;
  Counter("test.json_counter").add(3.0);
  Gauge("test.json_gauge").set(7.0);
  Histogram("test.json_hist", {1.0}).observe(0.5);
  const std::string json = to_json(registry->snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(Export, JsonNumberChecksMagnitudeBeforeConverting) {
  // Integers below 9e15 print as plain digits, everything else with %.17g.
  // Values beyond long long's range (2^63) must take the %.17g path without
  // ever being converted to long long, which would be undefined behaviour.
  EXPECT_EQ(detail::json_number(8999999999999999.0), "8999999999999999");
  EXPECT_EQ(detail::json_number(9007199254740992.0), "9007199254740992");
  EXPECT_EQ(detail::json_number(1e19), "1e+19");
  EXPECT_EQ(detail::json_number(1e30), "1e+30");
  EXPECT_EQ(detail::json_number(-1e300), "-1.0000000000000001e+300");
  EXPECT_EQ(detail::json_number(-0.0), "0");
  EXPECT_EQ(detail::json_number(2.5), "2.5");
}

/// The `kind,name,field,value` rows of a metrics CSV dump, keyed by
/// "kind,name,field"; the header row must come first.
std::map<std::string, double> csv_rows(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "kind,name,field,value");
  std::map<std::string, double> rows;
  while (std::getline(in, line)) {
    const std::size_t comma = line.rfind(',');
    rows[line.substr(0, comma)] = std::stod(line.substr(comma + 1));
  }
  return rows;
}

TEST(Export, CsvRoundTrip) {
  ScopedRegistry registry;
  Counter("test.csv_counter").add(42.0);
  Gauge("test.csv_gauge").set(6.5);
  const Histogram hist("test.csv_hist", {10.0, 100.0});
  hist.observe(5.0);
  hist.observe(50.0);
  const std::map<std::string, double> rows =
      csv_rows(to_csv(registry->snapshot()));
  EXPECT_DOUBLE_EQ(rows.at("counter,test.csv_counter,value"), 42.0);
  EXPECT_DOUBLE_EQ(rows.at("gauge,test.csv_gauge,value"), 6.5);
  EXPECT_EQ(rows.at("histogram,test.csv_hist,count"), 2.0);
  EXPECT_DOUBLE_EQ(rows.at("histogram,test.csv_hist,sum"), 55.0);
  EXPECT_DOUBLE_EQ(rows.at("histogram,test.csv_hist,min"), 5.0);
  EXPECT_DOUBLE_EQ(rows.at("histogram,test.csv_hist,max"), 50.0);
}

TEST(Export, ShuffledInsertionOrderIsByteIdentical) {
  // Determinism gate (gt-lint GT002 companion): the export boundary must
  // not depend on the order metrics were touched.  Two registries fed the
  // same values in reversed orders must serialize to identical bytes.
  std::string first_json, first_csv;
  {
    ScopedRegistry registry;
    Counter("order.alpha").add(1.0);
    Counter("order.beta").add(2.0);
    Gauge("order.gamma").set(3.0);
    Histogram("order.delta", {1.0, 10.0}).observe(4.0);
    first_json = to_json(registry->snapshot());
    first_csv = to_csv(registry->snapshot());
  }
  {
    ScopedRegistry registry;
    Histogram("order.delta", {1.0, 10.0}).observe(4.0);
    Gauge("order.gamma").set(3.0);
    Counter("order.beta").add(2.0);
    Counter("order.alpha").add(1.0);
    EXPECT_EQ(to_json(registry->snapshot()), first_json);
    EXPECT_EQ(to_csv(registry->snapshot()), first_csv);
  }
}

TEST(Report, ScalarRoundTrip) {
  RunReport report;
  report.set("makespan", 123.5);
  report.set("rounds", 3.0);
  report.set("makespan", 124.5);  // overwrites in place
  EXPECT_TRUE(report.has("makespan"));
  EXPECT_FALSE(report.has("absent"));
  EXPECT_DOUBLE_EQ(report.get("makespan"), 124.5);
  EXPECT_EQ(report.names(), (std::vector<std::string>{"makespan", "rounds"}));
  EXPECT_THROW(report.get("absent"), PreconditionError);
  EXPECT_THROW(report.set("", 1.0), PreconditionError);
}

// Golden check: after a cancellation-heavy run the published des.* metrics
// agree exactly with the Simulator's own accessors.
TEST(SimulatorMetrics, AgreeWithAccessors) {
  ScopedRegistry registry;
  {
    des::Simulator sim;
    std::vector<des::EventId> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(sim.schedule_at(static_cast<double>(i), [] {}, "tick"));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
    sim.run();
    sim.publish_metrics();
    const Snapshot snap = registry->snapshot();
    EXPECT_DOUBLE_EQ(snap.counters.at("des.events_executed"),
                     static_cast<double>(sim.executed_events()));
    EXPECT_DOUBLE_EQ(snap.counters.at("des.events_scheduled"),
                     static_cast<double>(sim.scheduled_events()));
    EXPECT_DOUBLE_EQ(snap.counters.at("des.events_cancelled"),
                     static_cast<double>(sim.cancelled_events()));
    EXPECT_DOUBLE_EQ(snap.gauges.at("des.heap_depth_max"),
                     static_cast<double>(sim.max_heap_depth()));
    EXPECT_EQ(snap.counters.at("des.events_executed") +
                  snap.counters.at("des.events_cancelled"),
              snap.counters.at("des.events_scheduled"));
    // Labeled events land in a per-type timing histogram.
    const auto it = snap.histograms.find("des.event_ns.tick");
    ASSERT_NE(it, snap.histograms.end());
    EXPECT_EQ(it->second.count, sim.executed_events());
  }
}

// The destructor publishes pending deltas: dropping a simulator mid-run
// must not lose its counts.
TEST(SimulatorMetrics, DestructorPublishes) {
  ScopedRegistry registry;
  const double before = [&] {
    const Snapshot snap = registry->snapshot();
    const auto it = snap.counters.find("des.events_executed");
    return it == snap.counters.end() ? 0.0 : it->second;
  }();
  {
    des::Simulator sim;
    for (int i = 0; i < 10; ++i) {
      sim.schedule_at(static_cast<double>(i), [] {});
    }
    sim.run();
  }  // destructor publishes
  const Snapshot snap = registry->snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("des.events_executed"), before + 10.0);
}

TEST(ExportScope, WritesJsonFile) {
  const std::string path =
      ::testing::TempDir() + "/gridtrust_obs_scope.metrics.json";
  {
    MetricsExportScope scope{std::string(path)};
    ASSERT_TRUE(scope.enabled());
    Counter("test.scope_counter").add(9.0);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"test.scope_counter\":9"), std::string::npos);
  EXPECT_EQ(obs::registry(), nullptr);
}

}  // namespace
}  // namespace gridtrust::obs
