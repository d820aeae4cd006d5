// Shared scaffolding for the bench binaries.
//
// Two families live here:
//
//   * Catalog-backed benches (the chaos robustness sweep, deadlines, the
//     market tournament) run a registered spec (src/lab/catalog.cpp,
//     docs/experiments-catalog.md) on the lab sweep engine through
//     `add_lab_flags` + `run_catalog_spec`, then check acceptance
//     properties on its manifest.  The numbers they print are exactly the
//     numbers `gridtrust_lab run <spec>` records.
//
//   * Scenario benches that explore parameters no catalog spec fixes keep
//     the original flag set: `add_common_flags` + `scenario_from_flags`.
//     The trust-aware vs trust-unaware ones declare their grid with
//     `paired_spec`, so each cell is a lab sweep of sim::run_paired units.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "lab/engine.hpp"
#include "sim/experiment.hpp"

namespace gridtrust::bench {

/// Registers the flags shared by every scenario bench.
void add_common_flags(CliParser& cli);

/// The base scenario for Tables 4-9 from the parsed shared flags (machines,
/// arrival rate, ESC pricing, table correlation).  Mode, heuristic, and
/// heterogeneity stay at their defaults; callers layer those on top.
sim::Scenario scenario_from_flags(const CliParser& cli);

/// A paired sweep over `axes` with the --replications and --seed of
/// `add_common_flags`: every (cell, replication) unit runs
/// sim::run_paired on `scenario(cell)`, and lab::finalize_paired adds
/// `improvement_pct` and `significant` to each cell.
lab::SweepSpec paired_spec(
    const CliParser& cli, std::string name, std::vector<lab::Axis> axes,
    std::function<sim::Scenario(const lab::Cell&)> scenario);

/// The aggregate named `name` in `cell`; throws PreconditionError when the
/// cell lacks it.
const lab::MetricAggregate& metric(const lab::ManifestCell& cell,
                                   const std::string& name);

/// Registers the flags shared by every catalog-backed bench: engine
/// overrides (--replications, --seed, --jobs, --cache-dir), output
/// (--out manifest path, --csv), and the obs --metrics-out flag.
void add_lab_flags(CliParser& cli);

/// Engine options from parsed `add_lab_flags` flags.
lab::EngineOptions engine_options_from_flags(const CliParser& cli);

/// Runs one registered catalog spec on the sweep engine and prints its
/// sweep grid, paired-CI summaries, expected line, and run stats.  Writes
/// the manifest when --out is set.  Returns the SweepRun so callers can
/// layer acceptance checks on the manifest.
lab::SweepRun run_catalog_spec(const CliParser& cli,
                               const std::string& spec_name);

}  // namespace gridtrust::bench
