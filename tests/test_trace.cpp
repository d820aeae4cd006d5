// Tests for workload traces (save/replay), seeded malformed-input sweeps
// of the three text parsers (traces, trust tables and JSON), and
// meta-request formation in batch-mode run_trms.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <typeinfo>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/json_in.hpp"
#include "sched/executor.hpp"
#include "sched/problem.hpp"
#include "sim/trm_simulation.hpp"
#include "trust/serialization.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"
#include "workload/trace.hpp"

namespace gridtrust::workload {
namespace {

struct Instance {
  std::vector<grid::Request> requests;
  sched::CostMatrix eec{1, 1};
};

Instance make_instance(std::uint64_t seed, std::size_t tasks = 20) {
  Rng rng(seed);
  const grid::GridSystem grid =
      grid::make_random_grid(grid::RandomGridParams{}, rng);
  RequestGenParams params;
  params.arrival_rate = 1.0;
  Instance out;
  out.requests = generate_requests(grid, tasks, params, rng);
  out.eec = generate_eec(tasks, grid.machines().size(), inconsistent_lolo(),
                         rng);
  return out;
}

/// save_trace's text for an instance.
std::string saved(const Instance& instance) {
  std::ostringstream os;
  save_trace(instance.requests, instance.eec, os);
  return os.str();
}

TEST(Trace, RoundTripPreservesRequestsExactly) {
  const Instance original = make_instance(1);
  const Trace restored = trace_from_string(saved(original));
  ASSERT_EQ(restored.requests.size(), original.requests.size());
  for (std::size_t i = 0; i < original.requests.size(); ++i) {
    const grid::Request& a = original.requests[i];
    const grid::Request& b = restored.requests[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.client, b.client);
    EXPECT_EQ(a.client_domain, b.client_domain);
    EXPECT_EQ(a.activities, b.activities);
    EXPECT_EQ(a.client_rtl, b.client_rtl);
    EXPECT_EQ(a.resource_rtl, b.resource_rtl);
    EXPECT_EQ(a.arrival_time, b.arrival_time);  // bit-exact (precision 17)
  }
}

TEST(Trace, RoundTripPreservesEecExactly) {
  const Instance original = make_instance(2);
  const Trace restored = trace_from_string(saved(original));
  ASSERT_EQ(restored.eec.rows(), original.eec.rows());
  ASSERT_EQ(restored.eec.cols(), original.eec.cols());
  for (std::size_t r = 0; r < original.eec.rows(); ++r) {
    for (std::size_t m = 0; m < original.eec.cols(); ++m) {
      EXPECT_EQ(restored.eec.get(r, m), original.eec.get(r, m));
    }
  }
}

TEST(Trace, ReplayedInstanceSchedulesIdentically) {
  const Instance original = make_instance(3);
  const Trace restored = trace_from_string(saved(original));

  const auto schedule_of = [](const std::vector<grid::Request>& requests,
                              const sched::CostMatrix& eec) {
    sched::TrustCostMatrix tc(requests.size(), eec.cols(), 2);
    std::vector<double> arrivals;
    for (const auto& r : requests) arrivals.push_back(r.arrival_time);
    const sched::SchedulingProblem problem(
        eec, tc, sched::trust_aware_policy(), sched::SecurityCostModel{},
        arrivals);
    auto mct = sched::make_mct();
    return sched::run_immediate(problem, *mct);
  };
  const sched::Schedule a = schedule_of(original.requests, original.eec);
  const sched::Schedule b = schedule_of(restored.requests, restored.eec);
  EXPECT_EQ(a.machine_of, b.machine_of);
  EXPECT_EQ(a.makespan(), b.makespan());
}

TEST(Trace, RejectsCorruptInput) {
  EXPECT_THROW(trace_from_string(""), PreconditionError);
  EXPECT_THROW(trace_from_string("nope\n"), PreconditionError);
  EXPECT_THROW(trace_from_string("gridtrust-trace v1\ncounts 0 5\n"),
               PreconditionError);
  EXPECT_THROW(
      trace_from_string("gridtrust-trace v1\ncounts 1 2\n"
                        "req 0 0 0 C D 0.0 1\n"
                        "eec 0 5.0\n"),  // row too short
      PreconditionError);
  EXPECT_THROW(
      trace_from_string("gridtrust-trace v1\ncounts 1 1\n"
                        "req 0 0 0 Z D 0.0 1\n"
                        "eec 0 5.0\n"),  // bad trust level
      PreconditionError);
}

// ------------------------------------------------------- malformed input

/// One to three seeded edits of `text`: a truncation at a byte offset, a
/// byte flip, a duplicated line, or a number replaced by an extreme one.
std::string mangle(std::string text, Rng& rng) {
  const std::size_t edits = 1 + rng.index(3);
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    switch (rng.index(4)) {
      case 0:
        text.resize(rng.index(text.size()));
        break;
      case 1:
        text[rng.index(text.size())] =
            static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2: {
        const std::size_t pos = rng.index(text.size());
        const std::size_t begin = text.rfind('\n', pos);
        const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = text.find('\n', pos);
        const std::size_t to = end == std::string::npos ? text.size() : end + 1;
        text.insert(to, text.substr(from, to - from));
        break;
      }
      default: {
        const std::size_t pos = text.find_first_of("0123456789",
                                                   rng.index(text.size()));
        if (pos == std::string::npos) break;
        const std::size_t end = text.find_first_not_of("0123456789", pos);
        const char* extreme[] = {"1099511627776", "18446744073709551615",
                                 "9223372036854775808", "4294967296", "9"};
        text.replace(pos, (end == std::string::npos ? text.size() : end) - pos,
                     extreme[rng.index(5)]);
        break;
      }
    }
  }
  return text;
}

/// Parses 1000 seeded manglings of `valid` with `parse`: each input must
/// parse or throw PreconditionError.  Reports the first failing seed.
template <class Mangle, class Parse>
void sweep_malformed(const char* what, const std::string& valid,
                     Mangle mangle_input, Parse parse) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const std::string text = mangle_input(valid, rng);
    try {
      parse(text);
    } catch (const PreconditionError&) {
      // The classified rejection.
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped as " << typeid(error).name() << ": "
                    << error.what();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "malformed " << what << " at seed " << seed << ":\n"
                    << text.substr(0, 4096);
      break;
    }
  }
}

/// Parses `text` as a trace and checks that what parsed is well formed.
void parse_trace(const std::string& text) {
  const Trace trace = trace_from_string(text);
  ASSERT_FALSE(trace.requests.empty());
  ASSERT_EQ(trace.eec.rows(), trace.requests.size());
  for (const grid::Request& req : trace.requests) {
    ASSERT_FALSE(req.activities.empty());
    ASSERT_LE(req.activities.size(), grid::ActivityList::kCapacity);
    ASSERT_GE(req.arrival_time, 0.0);
  }
  for (const double v : trace.eec.data()) ASSERT_GE(v, 0.0);
}

TEST(TraceFuzz, MalformedTracesParseOrThrowPreconditionError) {
  sweep_malformed("trace", saved(make_instance(11, 6)), mangle, parse_trace);
}

// Inputs the malformed-input sweep (or review) found, kept as seeds.
TEST(TraceFuzz, CommittedFindingsThrowPreconditionError) {
  const std::string header = "gridtrust-trace v1\n";
  const std::string one_req = "req 0 0 0 C D 0.5 1,2\n";
  // Counts the input does not back: before the fix the first two threw
  // std::length_error / std::bad_alloc from a reserve (sweep seed 212 is
  // the first), and the last two sized the EEC matrix from the counts line
  // (an 8 EiB row, or a rows * cols product that wraps to zero).
  for (const std::string counts :
       {"counts 1099511627776 5\n", "counts 18446744073709551615 5\n",
        "counts 1 9223372036854775808\n", "counts 2 9223372036854775808\n"}) {
    SCOPED_TRACE(counts);
    EXPECT_THROW(trace_from_string(header + counts + one_req + one_req +
                                   "eec 0 1.5\neec 1 2.5\n"),
                 PreconditionError);
  }
  // A duplicated eec line standing in for a missing one: before the fix,
  // request 1's EEC row silently read zero.
  EXPECT_THROW(trace_from_string(header + "counts 2 1\n" + one_req + one_req +
                                 "eec 0 1.5\neec 0 1.5\n"),
               PreconditionError);
  // Nine ToAs: one past a request's inline capacity, named in the error.
  try {
    trace_from_string(header + "counts 1 1\nreq 0 0 0 C D 0.5 0,1,2,3,4,5,6,7,0\n"
                      "eec 0 1.5\n");
    ADD_FAILURE() << "a request with nine ToAs parsed";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("at most 8 ToAs"),
              std::string::npos)
        << error.what();
  }
}

TEST(TableFuzz, MalformedTablesParseOrThrowPreconditionError) {
  trust::TrustLevelTable original(3, 4, 8);
  Rng rng(12);
  original.randomize(rng);
  sweep_malformed(
      "trust table", trust::table_to_string(original), mangle,
      [](const std::string& text) {
        const trust::TrustLevelTable table = trust::table_from_string(text);
        for (std::size_t cd = 0; cd < table.client_domains(); ++cd) {
          for (std::size_t rd = 0; rd < table.resource_domains(); ++rd) {
            for (std::size_t act = 0; act < table.activities(); ++act) {
              const int level = trust::to_numeric(table.get(cd, rd, act));
              ASSERT_GE(level, 1);
              ASSERT_LE(level, 5);
            }
          }
        }
      });
}

// What the table sweep found in the loader before rows were required
// before allocation: dims whose product is too large for a vector
// (std::length_error, sweep seed 19), too large to allocate
// (std::bad_alloc, seed 172), or wraps to zero, which loaded a table over
// no storage that the sweep's first read ran off (SIGSEGV, seed 954).
TEST(TableFuzz, CommittedFindingsThrowPreconditionError) {
  for (const std::string dims :
       {"dims 3 18446744073709551615 8\n", "dims 4294967296 4 8\n",
        "dims 9223372036854775808 4 8\n"}) {
    SCOPED_TRACE(dims);
    EXPECT_THROW(trust::table_from_string("gridtrust-trust-table v1\n" +
                                          dims + "row 0 0 BDDEEAED\n"),
                 PreconditionError);
  }
}

/// mangle(), or nesting near and far past parse_json's 64-level limit: a
/// run of '[' or '{"a":' openers inserted anywhere, or wrapped around the
/// whole document with its closers.
std::string mangle_json(std::string text, Rng& rng) {
  if (rng.index(4) != 0) return mangle(std::move(text), rng);
  const std::size_t depths[] = {58, 59, 60, 64, 1000, 200000};
  const std::size_t depth = depths[rng.index(6)];
  const bool array = rng.bernoulli(0.5);
  std::string open;
  std::string close(depth, array ? ']' : '}');
  for (std::size_t i = 0; i < depth; ++i) open += array ? "[" : "{\"a\":";
  if (rng.bernoulli(0.5)) return open + text + close;
  text.insert(rng.index(text.size() + 1), open);
  return text;
}

TEST(JsonFuzz, MalformedJsonParsesOrThrowsPreconditionError) {
  // Manifest-shaped: five levels deep, like every committed manifest.
  const std::string valid =
      "{\"schema\":\"gridtrust-manifest v1\",\"spec\":{\"name\":\"fuzz\","
      "\"axes\":[{\"name\":\"alpha\",\"values\":[1,2.5,-3e2]}]},"
      "\"cells\":[{\"index\":0,\"params\":{\"mode\":\"fa\\\"st\\u0041\"},"
      "\"metrics\":{\"makespan\":{\"mean\":1234.5,\"ci95\":0.25,"
      "\"n\":18446744073709551615}},\"ok\":true,\"note\":null,"
      "\"skip\":false}]}";
  ASSERT_NO_THROW((void)obs::parse_json(valid));
  sweep_malformed("JSON", valid, mangle_json, [](const std::string& text) {
    (void)obs::parse_json(text);
  });
}

TEST(Trace, SaveValidatesShape) {
  const Instance original = make_instance(4, 5);
  sched::CostMatrix wrong(3, 2, 1.0);
  std::ostringstream os;
  EXPECT_THROW(save_trace(original.requests, wrong, os), PreconditionError);
  EXPECT_THROW(save_trace({}, wrong, os), PreconditionError);
}

// ------------------------------------------------------- meta-requests

/// run_trms in batch mode: one machine, a 0.01 s cost per request, so each
/// request starts at the tick that formed its meta-request (plus the
/// earlier members of that batch).
sim::SimulationResult run_batches(const std::vector<double>& arrivals,
                                  double interval) {
  const std::size_t n = arrivals.size();
  const sched::SchedulingProblem problem(
      sched::CostMatrix(n, 1, 0.01), sched::TrustCostMatrix(n, 1, 0),
      sched::trust_aware_policy(), sched::SecurityCostModel{}, arrivals);
  sim::TrmsConfig cfg;
  cfg.mode = sim::SchedulingMode::kBatch;
  cfg.heuristic = "min-min";
  cfg.batch_interval = interval;
  return sim::run_trms(problem, cfg);
}

TEST(MetaRequests, GroupsByFormationTick) {
  const sim::SimulationResult result =
      run_batches({0.5, 9.9, 10.0, 10.1, 25.0}, 10.0);
  ASSERT_EQ(result.batches, 3u);
  // 0.5, 9.9 and 10.0 (on-tick joins) form at 10; 10.1 at 20; 25.0 at 30.
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_GE(result.schedule.start[r], 10.0);
    EXPECT_LT(result.schedule.start[r], 10.03);
  }
  EXPECT_EQ(result.schedule.start[3], 20.0);
  EXPECT_EQ(result.schedule.start[4], 30.0);
}

TEST(MetaRequests, EmptyIntervalsProduceNoBatches) {
  const sim::SimulationResult result = run_batches({1.0, 100.0}, 10.0);
  ASSERT_EQ(result.batches, 2u);
  EXPECT_EQ(result.schedule.start[0], 10.0);
  EXPECT_EQ(result.schedule.start[1], 100.0);
}

TEST(MetaRequests, ArrivalAtZeroJoinsFirstBatch) {
  const sim::SimulationResult result = run_batches({0.0}, 5.0);
  ASSERT_EQ(result.batches, 1u);
  EXPECT_EQ(result.schedule.start[0], 5.0);
}

TEST(MetaRequests, Validation) {
  EXPECT_THROW(run_batches({1.0}, 0.0), PreconditionError);
  EXPECT_THROW(run_batches({1.0}, -10.0), PreconditionError);
  // Requests listed out of arrival order still batch by arrival.
  const sim::SimulationResult result = run_batches({15.0, 1.0}, 10.0);
  EXPECT_EQ(result.batches, 2u);
  EXPECT_EQ(result.schedule.start[1], 10.0);
  EXPECT_EQ(result.schedule.start[0], 20.0);
}

}  // namespace
}  // namespace gridtrust::workload
