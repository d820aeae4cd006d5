// The registered experiment catalog.
//
// Every named sweep the `gridtrust_lab` CLI runs is declared here: the six
// paper schedule tables, the chaos robustness sweep, the ablations (ESC
// pricing, batch interval, pricing surface, model interpretation, security
// policy), the tournaments and deadlines, the CI smoke specs, and the
// static-instance extension studies (scale, trust diversity, the full
// heuristic family, the §5.2 theorem check, distributed schedulers, data
// staging).  `bench_report` and perfbench run the table specs from here.
// Each entry in this registry has a matching section in
// docs/experiments-catalog.md — keep the two in sync (CONTRIBUTING.md,
// "Adding an experiment").
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "lab/spec.hpp"

namespace gridtrust::lab {

/// All registered specs, in catalog order.
const std::vector<SweepSpec>& builtin_specs();

/// Lookup by name; nullptr when unknown.
const SweepSpec* find_spec(const std::string& name);

/// Named suites (groups of spec names): "tables" is the six-table paper
/// suite, "ablations" the six ablation sweeps, "markets" the economy
/// specs, "all" everything registered.
const std::vector<std::pair<std::string, std::vector<std::string>>>& suites();

/// The finalize hook of every paired sweep (one whose units are
/// sim::run_paired reports): derives `improvement_pct`, the improvement of
/// the mean makespans, and `significant`, 1 when the 95 % CI of the paired
/// makespan difference excludes zero.
void finalize_paired(const Cell& cell, AggregateSet& aggregate);

/// Expands `name` to spec names: a suite name expands to its members, a
/// spec name to itself; empty when neither exists.
std::vector<std::string> resolve_run_names(const std::string& name);

}  // namespace gridtrust::lab
