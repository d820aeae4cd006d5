// Test helper: one scenario as a one-cell paired lab sweep, the way the
// catalog's paired specs run it.  The cell's only axis is `tasks` (the
// scenario's own task count), so unit seeds depend on (seed, tasks,
// replication) alone: two scenarios with the same task count and seed draw
// the same instances (common random numbers across scenarios).
#pragma once

#include <cstdint>

#include "common/thread_pool.hpp"
#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/spec.hpp"
#include "sim/experiment.hpp"

namespace gridtrust::testing_support {

/// The one-cell spec: `replications` sim::run_paired units of `scenario`
/// under master seed `seed`, finalized by lab::finalize_paired.
inline lab::SweepSpec one_cell_paired_spec(const sim::Scenario& scenario,
                                           std::size_t replications,
                                           std::uint64_t seed) {
  lab::SweepSpec spec;
  spec.name = "paired";
  spec.axes = {{"tasks", {static_cast<double>(scenario.tasks)}}};
  spec.replications = replications;
  spec.seed = seed;
  spec.run = [scenario](const lab::Cell&, std::uint64_t rep_seed) {
    return sim::run_paired(scenario, rep_seed);
  };
  spec.finalize = lab::finalize_paired;
  return spec;
}

/// Runs one_cell_paired_spec on the engine (serially, or on `pool`) and
/// returns the cell's aggregates: `unaware.*`, `aware.*`, `makespan_diff`,
/// `improvement_pct` and `significant`.
inline lab::AggregateSet run_paired_cell(const sim::Scenario& scenario,
                                         std::size_t replications,
                                         std::uint64_t seed,
                                         ThreadPool* pool = nullptr) {
  lab::EngineOptions options;
  options.pool = pool;
  const lab::SweepRun run = lab::run_sweep(
      one_cell_paired_spec(scenario, replications, seed), options);
  lab::AggregateSet cell;
  for (const auto& [name, aggregate] : run.manifest.cells.front().metrics) {
    cell.set(name, aggregate);
  }
  return cell;
}

}  // namespace gridtrust::testing_support
