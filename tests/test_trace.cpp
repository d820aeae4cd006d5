// Tests for workload traces (save/replay) and meta-request formation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <typeinfo>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/executor.hpp"
#include "sched/problem.hpp"
#include "sim/trm_simulation.hpp"
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

TEST(Trace, RoundTripPreservesRequestsExactly) {
  const Instance original = make_instance(1);
  const Trace restored =
      trace_from_string(trace_to_string(original.requests, original.eec));
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
  const Trace restored =
      trace_from_string(trace_to_string(original.requests, original.eec));
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
  const Trace restored =
      trace_from_string(trace_to_string(original.requests, original.eec));

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

/// Parses `text`: either a well-formed trace or PreconditionError.
void parse_or_reject(const std::string& text) {
  try {
    const Trace trace = trace_from_string(text);
    ASSERT_FALSE(trace.requests.empty());
    ASSERT_EQ(trace.eec.rows(), trace.requests.size());
    for (const grid::Request& req : trace.requests) {
      ASSERT_FALSE(req.activities.empty());
      ASSERT_LE(req.activities.size(), grid::ActivityList::kCapacity);
      ASSERT_GE(req.arrival_time, 0.0);
    }
    for (const double v : trace.eec.data()) ASSERT_GE(v, 0.0);
  } catch (const PreconditionError&) {
    // The classified rejection.
  }
}

TEST(TraceFuzz, MalformedTracesParseOrThrowPreconditionError) {
  const Instance original = make_instance(11, 6);
  const std::string valid = trace_to_string(original.requests, original.eec);
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const std::string text = mangle(valid, rng);
    try {
      parse_or_reject(text);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped as " << typeid(error).name() << ": "
                    << error.what();
    }
    if (HasFailure()) {
      ADD_FAILURE() << "malformed trace at seed " << seed << ":\n" << text;
      break;
    }
  }
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

TEST(Trace, SaveValidatesShape) {
  const Instance original = make_instance(4, 5);
  sched::CostMatrix wrong(3, 2, 1.0);
  std::ostringstream os;
  EXPECT_THROW(save_trace(original.requests, wrong, os), PreconditionError);
  EXPECT_THROW(save_trace({}, wrong, os), PreconditionError);
}

// ------------------------------------------------------- meta-requests

grid::Request at(double arrival, grid::RequestId id = 0) {
  grid::Request r;
  r.id = id;
  r.activities = {0};
  r.arrival_time = arrival;
  return r;
}

TEST(MetaRequests, GroupsByFormationTick) {
  const std::vector<grid::Request> requests = {
      at(0.5, 0), at(9.9, 1), at(10.0, 2), at(10.1, 3), at(25.0, 4)};
  const auto batches = form_meta_requests(requests, 10.0);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].formed_at, 10.0);
  EXPECT_EQ(batches[0].size(), 3u);  // 0.5, 9.9, 10.0 (on-tick joins)
  EXPECT_EQ(batches[1].formed_at, 20.0);
  EXPECT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[2].formed_at, 30.0);
  EXPECT_EQ(batches[2].size(), 1u);
}

TEST(MetaRequests, EmptyIntervalsProduceNoBatches) {
  const auto batches =
      form_meta_requests({at(1.0), at(100.0)}, 10.0);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].batch_index, 0u);
  EXPECT_EQ(batches[1].batch_index, 9u);
  EXPECT_EQ(batches[1].formed_at, 100.0);
}

TEST(MetaRequests, ArrivalAtZeroJoinsFirstBatch) {
  const auto batches = form_meta_requests({at(0.0)}, 5.0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].formed_at, 5.0);
  EXPECT_FALSE(batches[0].empty());
}

TEST(MetaRequests, MatchesBatchSimulatorBatchCount) {
  // The analytic grouping must agree with the event-driven RMS.
  const Instance inst = make_instance(7, 40);
  const double interval = 15.0;
  const auto batches = form_meta_requests(inst.requests, interval);

  sched::TrustCostMatrix tc(inst.requests.size(), inst.eec.cols(), 0);
  std::vector<double> arrivals;
  for (const auto& r : inst.requests) arrivals.push_back(r.arrival_time);
  const sched::SchedulingProblem problem(
      inst.eec, tc, sched::trust_aware_policy(), sched::SecurityCostModel{},
      arrivals);
  sim::TrmsConfig cfg;
  cfg.mode = sim::SchedulingMode::kBatch;
  cfg.heuristic = "min-min";
  cfg.batch_interval = interval;
  const sim::SimulationResult result = sim::run_trms(problem, cfg);
  EXPECT_EQ(result.batches, batches.size());
  std::size_t total = 0;
  for (const auto& b : batches) total += b.size();
  EXPECT_EQ(total, inst.requests.size());
}

TEST(MetaRequests, Validation) {
  EXPECT_THROW(form_meta_requests({at(1.0)}, 0.0), PreconditionError);
  EXPECT_THROW(form_meta_requests({at(5.0, 0), at(1.0, 1)}, 10.0),
               PreconditionError);  // unsorted arrivals
}

}  // namespace
}  // namespace gridtrust::workload
