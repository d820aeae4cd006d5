// Offline executors: run a heuristic over a whole problem instance.
//
// These are the "all requests known" execution modes used by unit tests,
// ablations, and microbenchmarks.  The event-driven RMS (arrivals over
// simulated time, periodic meta-request formation) lives in sim/.
#pragma once

#include "sched/heuristic.hpp"
#include "sched/schedule.hpp"

namespace gridtrust::sched {

/// Runs an immediate-mode heuristic over every request in arrival order
/// (stable on equal arrivals).  Each request's ready time is its arrival.
Schedule run_immediate(const SchedulingProblem& p, ImmediateHeuristic& h);

/// Runs a batch heuristic on the whole instance as one meta-request formed
/// at time `ready` (default 0).
Schedule run_batch_all(const SchedulingProblem& p, BatchHeuristic& h,
                       double ready = 0.0);

/// select_machine with the scheduler's decision counter
/// (`sched.heuristic_invocations`); behaviourally identical to calling the
/// heuristic directly.  All executors — offline and the DES-driven RMS —
/// funnel heuristic calls through these two wrappers so instrumentation
/// lives in one place.
std::size_t select_machine_instrumented(ImmediateHeuristic& h,
                                        const SchedulingProblem& p,
                                        std::size_t r, double ready,
                                        const Schedule& schedule);

/// map_batch with scheduler metrics (`sched.batches_mapped`,
/// `sched.batch_size`, `sched.map_batch_ns`).
void map_batch_instrumented(BatchHeuristic& h, const SchedulingProblem& p,
                            const std::vector<std::size_t>& batch,
                            double ready, Schedule& schedule);

}  // namespace gridtrust::sched
