// Lab manifests: the on-disk record of one sweep run.
//
// A manifest is a single JSON document holding the spec identity (name,
// content hash, git revision, seed) and one entry per cell with its
// parameters and mean/CI aggregates.  It deliberately contains *no* timing,
// worker-count, or timestamp fields: running the same spec with any --jobs
// value yields a byte-identical file, which is what makes manifests usable
// as committed baselines (`gridtrust_lab compare`) and cacheable artifacts.
//
// Schema v2 adds failure semantics on top of v1: a run-level `outcome`
// (complete | partial | interrupted), a per-cell `status` (ok | failed |
// skipped), and structured per-unit failure records — all still pure
// functions of (spec, seed) when the runner's failures are deterministic,
// so the byte-stability contract holds.  v1 documents parse with the
// obvious defaults (every cell ok, outcome complete).
//
// docs/observability.md documents every key of the schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.hpp"
#include "lab/spec.hpp"
#include "obs/json_in.hpp"

namespace gridtrust::lab {

/// One (cell, replication) unit that exhausted its retry budget.
struct UnitFailure {
  /// Replication index within the cell.
  std::size_t rep = 0;
  /// The derived rep seed the unit ran (and was retried) with.
  std::uint64_t seed = 0;
  ErrorClass error_class = ErrorClass::kUnknown;
  std::string message;
  /// Attempts consumed (>= 1; > 1 means retries happened).
  std::size_t attempts = 1;

  bool operator==(const UnitFailure&) const = default;
};

/// Per-cell completion status.
enum class CellStatus {
  kOk,      ///< every replication succeeded
  kFailed,  ///< >= 1 replication exhausted retries; metrics cover survivors
  kSkipped, ///< never (fully) ran — interrupted or budget-aborted
};

std::string to_string(CellStatus status);
CellStatus parse_cell_status(const std::string& text);

/// Run-level outcome.
enum class RunOutcome {
  kComplete,     ///< every cell ok
  kPartial,      ///< >= 1 failed cell, within the failure budget
  kInterrupted,  ///< drained early on SIGINT/SIGTERM or cancellation
};

std::string to_string(RunOutcome outcome);
RunOutcome parse_run_outcome(const std::string& text);

/// One grid point's results.  MetricAggregate lives in lab/spec.hpp.
struct ManifestCell {
  std::size_t index = 0;
  std::vector<std::pair<std::string, ParamValue>> params;
  /// hash_hex(cell_param_hash) — the value mixed into seed derivation.
  std::string param_hash;
  std::size_t replications = 0;
  CellStatus status = CellStatus::kOk;
  /// Insertion-ordered metric name -> aggregate.  For a failed cell these
  /// aggregate the surviving replications only (each metric's n says how
  /// many); empty for a skipped cell.
  std::vector<std::pair<std::string, MetricAggregate>> metrics;
  /// Exhausted units, ordered by replication index; empty when status ok.
  std::vector<UnitFailure> failures;
};

/// The whole document.
struct Manifest {
  std::string schema = "gridtrust.lab.manifest/v2";
  std::string spec;
  std::string title;
  /// hash_hex(SweepSpec::content_hash()) under the effective seed and
  /// replication count of the run.
  std::string spec_hash;
  std::string git_rev = "unknown";
  std::uint64_t seed = 0;
  std::size_t replications = 0;
  double tolerance_pct = 1.0;
  RunOutcome outcome = RunOutcome::kComplete;
  std::vector<ManifestCell> cells;
};

/// Serializes deterministically (cells by index, params in axis order,
/// metrics in insertion order, round-trippable numbers): equal Manifests
/// produce byte-equal JSON, and parse_manifest(to_json(m)) == m.
std::string to_json(const Manifest& manifest);

/// One cell as a standalone JSON object (the result cache's file format).
std::string cell_to_json(const ManifestCell& cell);

/// Parses a full manifest document; throws PreconditionError on malformed
/// input or an unknown schema string.  Accepts both v1 (pre-failure-
/// semantics; cells default to ok and the outcome to complete) and v2;
/// the parsed struct always carries the v2 schema string, so a re-
/// serialized v1 document upgrades in place.
Manifest parse_manifest(const std::string& json);

/// Parses one cell object (as written by cell_to_json).
ManifestCell parse_manifest_cell(const obs::JsonValue& value);

/// Reads a count (seed, replications, index, n, ...): a JSON number that
/// is finite, non-negative, integral and below 2^64.  A count written as
/// plain digits is read exactly, so every 64-bit seed round-trips.  Throws
/// PreconditionError naming `what` otherwise.  Every manifest and journal
/// count goes through it.
std::uint64_t parse_count(const obs::JsonValue& value, const char* what);

/// Baseline comparison knobs.
struct CompareOptions {
  /// Relative gate in percent; negative means "use the baseline's
  /// tolerance_pct".
  double tolerance_pct = -1.0;
  /// Absolute floor: a metric passes when |cand - base| is within
  /// max(tolerance_abs, tolerance_pct/100 * |base|).  Covers metrics whose
  /// baseline mean is exactly zero.
  double tolerance_abs = 1e-9;
};

/// One failed gate or structural mismatch.
struct Violation {
  std::string where;  ///< "cell 3 (tasks=100) metric aware.makespan.mean"
  std::string what;   ///< human-readable difference
};

struct CompareResult {
  bool pass = false;
  double tolerance_pct = 0.0;
  std::size_t metrics_checked = 0;
  std::vector<Violation> violations;
};

/// Gates `candidate` against `baseline`: spec identity, cell structure
/// (count, params, replications), and every baseline metric mean within
/// tolerance.  git_rev and spec_hash differences are reported as
/// informational only when the numbers agree — a rebuilt binary that
/// reproduces the baseline passes.
CompareResult compare_manifests(const Manifest& candidate,
                                const Manifest& baseline,
                                const CompareOptions& options = {});

}  // namespace gridtrust::lab
