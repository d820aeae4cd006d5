// The event-driven trust-aware resource management system (Fig. 1 + §4.1).
//
// Requests arrive at the central RMS over simulated time (Poisson arrivals
// in the paper).  In immediate mode the TRM-scheduler maps each request on
// arrival (MCT-style heuristics); in batch mode it collects arrivals into
// meta-requests and maps one meta-request per batch interval (Min-min /
// Sufferage-style heuristics).
//
// Ordering contract.  A run is a next-event loop over two sequences known
// up front, the arrivals and the batch ticks, walked in the DES kernel's
// (time, seq) order without building a kernel:
//   - arrivals run in (arrival time, request index) order; the problem's
//     arrival times need not be sorted;
//   - immediate mode maps each request at its own arrival time;
//   - batch ticks fall at 0 + interval, then at previous tick + interval,
//     summed as doubles;
//   - an arrival at exactly a tick's time joins that tick's batch;
//   - an empty tick maps nothing but is still an event; after a tick, the
//     run ends once no request is left to arrive.
// SimulationResult::events counts arrivals plus ticks, as the kernel did.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/report.hpp"
#include "sched/executor.hpp"
#include "sched/heuristic.hpp"

namespace gridtrust::sim {

/// Scheduling mode of the RMS.
enum class SchedulingMode { kImmediate, kBatch };

/// RMS configuration.
struct TrmsConfig {
  SchedulingMode mode = SchedulingMode::kImmediate;
  /// Heuristic name: immediate mode accepts olb/met/mct/kpb/switching,
  /// batch mode accepts min-min/max-min/sufferage/duplex.
  std::string heuristic = "mct";
  /// Meta-request formation interval (seconds); batch mode only.
  double batch_interval = 30.0;
};

/// Outcome of one simulated run.
struct SimulationResult {
  sched::Schedule schedule;
  double makespan = 0.0;
  double utilization_pct = 0.0;
  double mean_flow_time = 0.0;
  /// Median and tail of the per-request flow times (completion - arrival).
  double flow_time_p50 = 0.0;
  double flow_time_p95 = 0.0;
  /// Meta-requests formed (batch mode; 0 in immediate mode).
  std::size_t batches = 0;
  /// Events walked: arrivals plus batch ticks.
  std::uint64_t events = 0;

  /// The scalar outcome metrics as a uniform obs::RunReport (names:
  /// makespan, utilization_pct, mean_flow_time, flow_time_p50,
  /// flow_time_p95, batches, events).  The schedule itself is not included.
  obs::RunReport report() const;
};

/// Runs the RMS over `problem` (whose arrival times drive the run) under
/// `config`.  The problem's policy decides trust awareness.  Batch mode
/// needs a finite, positive `batch_interval`.
SimulationResult run_trms(const sched::SchedulingProblem& problem,
                          const TrmsConfig& config);

}  // namespace gridtrust::sim
