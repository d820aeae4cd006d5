// The registered experiment catalog.
//
// Every named sweep the `gridtrust_lab` CLI (and the bench binaries built
// on it) can run is declared here: the six paper schedule tables, the chaos
// robustness sweep, the ESC-pricing and batch-interval ablations, the
// tournaments, and the CI smoke specs.  Each entry in this registry has a
// matching section in docs/experiments-catalog.md — keep the two in sync
// (CONTRIBUTING.md, "Adding an experiment").
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
/// suite, "ablations" the ablation sweeps, "all" everything registered.
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
