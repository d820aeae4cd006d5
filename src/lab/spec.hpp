// The lab layer: declarative sweep specifications.
//
// A SweepSpec turns an experiment into data: it names a cartesian parameter
// grid (the axes), a replication count, a seed, and a runner that maps one
// (cell, replication) pair to an obs::RunReport.  The engine (lab/engine.hpp)
// expands the grid, fans the units out over a ThreadPool with deterministic
// per-cell seed derivation, and aggregates the reports into mean/CI
// summaries — so a bench binary declares *what* to sweep and never hand-rolls
// the loop, the seeding, or the output formatting again.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/report.hpp"

namespace gridtrust::lab {

/// One axis value: a number or a string (e.g. a heuristic name).
class ParamValue {
 public:
  ParamValue() = default;
  ParamValue(double number) : is_number_(true), number_(number) {}  // NOLINT
  ParamValue(int number)  // NOLINT
      : is_number_(true), number_(static_cast<double>(number)) {}
  ParamValue(std::string text) : text_(std::move(text)) {}  // NOLINT
  ParamValue(const char* text) : text_(text) {}             // NOLINT

  bool is_number() const { return is_number_; }
  double number() const;
  const std::string& text() const;

  /// Canonical rendering used for hashing and manifests (numbers use the
  /// round-trippable obs JSON format, so equal doubles hash equally).
  std::string canonical() const;

  bool operator==(const ParamValue& other) const;

 private:
  bool is_number_ = false;
  double number_ = 0.0;
  std::string text_;
};

/// One sweep dimension: a parameter name and the values it takes.
struct Axis {
  std::string name;
  std::vector<ParamValue> values;
};

/// One point of the expanded grid.
struct Cell {
  /// Row-major index over the axes (last axis varies fastest).
  std::size_t index = 0;
  /// One (name, value) pair per axis, in axis order.
  std::vector<std::pair<std::string, ParamValue>> params;

  /// Parameter lookup by name; throws PreconditionError when absent or when
  /// the value kind does not match.
  double number(const std::string& name) const;
  const std::string& text(const std::string& name) const;
};

/// Mean/CI summary of one scalar metric over a cell's replications.
/// Derived metrics (added by a spec's finalize hook) carry n == 0.
struct MetricAggregate {
  double mean = 0.0;
  double ci95 = 0.0;
  std::size_t n = 0;
};

/// Insertion-ordered metric name -> aggregate map for one cell; what the
/// engine hands to finalize hooks and serializes into manifests.
class AggregateSet {
 public:
  /// Upserts (insertion order preserved on first set).
  void set(const std::string& name, MetricAggregate aggregate);
  /// Derived-scalar shorthand: mean = value, ci95 = 0, n = 0.
  void set_derived(const std::string& name, double value);

  /// Aggregate accessor; throws PreconditionError when absent.
  const MetricAggregate& get(const std::string& name) const;
  /// Mean shorthand for finalize hooks.
  double mean(const std::string& name) const { return get(name).mean; }

  const std::vector<std::pair<std::string, MetricAggregate>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, MetricAggregate>> entries_;
};

/// A declarative sweep: grid + seeding + runner + presentation hints.
struct SweepSpec {
  /// Registry key (`gridtrust_lab run <name>`), kebab/snake, unique.
  std::string name;
  /// Human title printed by `list` and rendered tables.
  std::string title;
  /// Paper artifact this reproduces ("Table 4", "§2.2 ablation", ...).
  std::string paper_ref;
  /// Expected qualitative outcome, printed next to results.
  std::string expected;
  /// Bump when the runner's semantics change: the content hash (and so the
  /// result cache and baselines) invalidates with it.
  std::string version = "1";

  std::vector<Axis> axes;
  /// Replications per cell; the engine aggregates mean/CI over these.
  std::size_t replications = 1;
  /// Master seed; per-unit seeds derive from (seed, cell hash, replication).
  std::uint64_t seed = 20020815;
  /// Relative tolerance (percent) used by baseline comparison gates.
  double tolerance_pct = 1.0;

  /// Runs one replication of one cell.  Must be a pure function of
  /// (cell, rep_seed) — no shared mutable state — because the engine calls
  /// it concurrently from pool workers.  Each scalar in the returned
  /// report becomes a mean/CI summary.
  std::function<obs::RunReport(const Cell& cell, std::uint64_t rep_seed)> run;

  /// Optional: derives extra scalars from a cell's aggregate (e.g. the
  /// improvement of means, which is not the mean of improvements).
  std::function<void(const Cell& cell, AggregateSet& aggregate)> finalize;

  /// Metric names the generic CLI table shows (subset of the aggregate).
  std::vector<std::string> display_metrics;

  /// Expands the cartesian grid in row-major order.
  std::vector<Cell> cells() const;

  /// Content hash over name, version, seed, replications, and every axis
  /// value — two specs hash equally iff they declare the same sweep.
  std::uint64_t content_hash() const;
};

/// FNV-1a 64-bit over a string (exposed for cache keys and tests).
std::uint64_t fnv1a64(const std::string& text);

/// Deterministic per-unit seed: mixes (master seed, cell parameter hash,
/// replication index) through SplitMix64 so every (cell, rep) unit owns an
/// independent stream regardless of execution order or worker count.
std::uint64_t derive_rep_seed(std::uint64_t master_seed,
                              std::uint64_t cell_param_hash, std::size_t rep);

/// Hash of a cell's parameters only (stable across seed/replication edits;
/// feeds derive_rep_seed).
std::uint64_t cell_param_hash(const Cell& cell);

/// 16-hex-digit rendering used in manifests.
std::string hash_hex(std::uint64_t hash);

}  // namespace gridtrust::lab
