// The sweep engine: expands a SweepSpec's grid, fans (cell, replication)
// units out over a ThreadPool, and aggregates the RunReports into a
// Manifest.
//
// Determinism contract: every unit's seed is derive_rep_seed(master seed,
// cell parameter hash, replication index) — a pure function of the spec, not
// of scheduling — and every unit writes into a preallocated slot, so running
// with one worker, sixteen workers, or the shared pool produces bit-identical
// manifests.  A ResultCache (optional) short-circuits cells whose content
// key was computed before; cached and fresh cells are indistinguishable in
// the output.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "common/thread_pool.hpp"
#include "lab/manifest.hpp"
#include "lab/spec.hpp"

namespace gridtrust::lab {

/// Execution knobs.  None of these can change the *numbers* — they decide
/// how failures, crashes, and interruptions are handled around the pure
/// (cell, rep_seed) computation.  (`unit_deadline_seconds` is the one
/// documented exception: it gates on wall clock, so enabling it trades
/// bit-determinism for hang containment.)
struct EngineOptions {
  /// Worker threads: 1 = serial in the calling thread, N >= 2 = a pool of N,
  /// 0 = the process-wide ThreadPool::shared() sized to the hardware.
  std::size_t jobs = 1;
  /// Override the spec's master seed / replication count for this run.
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> replications;
  /// Result-cache directory; empty disables caching.
  std::string cache_dir;
  /// External pool to fan out on (overrides `jobs` when set).  The engine
  /// never nests parallel_for, so sharing one pool across layers is safe.
  ThreadPool* pool = nullptr;

  /// Per-unit retry policy.  Failed units re-run with their original
  /// derived seed (determinism preserved); transient classes (resource,
  /// timeout, unknown) back off exponentially between attempts.
  RetryPolicy retry;
  /// Percentage of the sweep's (cell, replication) units allowed to
  /// exhaust retries before the run aborts.  0 (default) keeps the
  /// historical strict contract: the first exhausted unit's exception is
  /// rethrown (after every other unit has been attempted).  > 0 downgrades
  /// a within-budget run to outcome `partial` instead of throwing.
  double failure_budget_pct = 0.0;
  /// Checkpoint journal path.  The header (plus any resumed or cached
  /// cells) is written atomically before work starts; after that every
  /// cleanly completed cell is appended as one line as it finishes (one
  /// write and one fdatasync per line).  Empty disables.
  std::string journal_path;
  /// Journal to resume from: completed `ok` cells re-load (guarded by the
  /// spec content hash) and only the remainder runs.  A missing file is
  /// treated as an empty journal (the previous run died before its first
  /// checkpoint).  Failed cells in the journal re-run.
  std::string resume_journal;
  /// Per-unit wall-clock deadline in seconds; a unit whose attempt overruns
  /// is recorded as a `timeout` failure (its result is discarded) instead
  /// of silently stalling the sweep.  0 disables.  Wall-clock gated, so
  /// enabling it forfeits bit-determinism on overrun.
  double unit_deadline_seconds = 0.0;
  /// Cooperative cancellation (the CLI points this at its signal flag).
  /// Once set, no new unit starts; in-flight units drain, fully-finished
  /// cells are journaled, the rest are marked `skipped`, and the manifest
  /// outcome becomes `interrupted`.
  const std::atomic<bool>* cancel = nullptr;
  /// Test aid: artificial latency (ms) added to every unit, to widen the
  /// interruption window in kill/resume tests.  Never changes results.
  std::uint64_t unit_sleep_ms = 0;

  /// Restrict the run to these grid indices (the supervisor's shards).
  /// Cells outside the subset are left untouched in the manifest and do
  /// not count toward the failure budget or the outcome.  nullptr (the
  /// default) runs the whole grid.  Values must be valid grid indices.
  const std::vector<std::size_t>* cell_subset = nullptr;
  /// Fired after a *fresh* cell finalizes, for ok and failed cells alike
  /// (resumed/cached cells never fire).  An ok cell's journal line is
  /// durable before its callback fires.  Runs under the engine's finalize
  /// lock; keep it cheap.  The supervisor's workers stream completed cells
  /// to the coordinator from here.
  std::function<void(const ManifestCell&)> on_cell_complete;
  /// Fired after every (cell, replication) unit attempt chain resolves —
  /// the supervisor's workers derive heartbeats from this.
  std::function<void()> on_unit_complete;
};

/// One engine run: the manifest plus execution facts that deliberately stay
/// *out* of the manifest (so manifests stay byte-stable across jobs/cache
/// configurations).
struct SweepRun {
  Manifest manifest;
  std::size_t cells = 0;
  std::size_t cache_hits = 0;
  std::size_t units_run = 0;  ///< (cell, replication) pairs computed fresh
  std::size_t units_failed = 0;   ///< units that exhausted their retries
  std::size_t units_retried = 0;  ///< extra attempts consumed by retries
  std::size_t cells_failed = 0;
  std::size_t cells_skipped = 0;   ///< never (fully) ran: interrupted
  std::size_t cells_resumed = 0;   ///< re-loaded from the resume journal
  double wall_seconds = 0.0;
};

/// Runs the sweep.  Throws PreconditionError on a spec without a runner,
/// with an empty axis, or on a resume journal from a different sweep.
/// Runner exceptions are contained per unit (see EngineOptions::retry /
/// failure_budget_pct); with the default zero budget the first exhausted
/// unit's exception is rethrown once every unit has been attempted, after
/// every completed cell's journal line (if any) is durable.  A journal
/// write or sync failure leaves as std::system_error.
SweepRun run_sweep(const SweepSpec& spec, const EngineOptions& options = {});

/// The manifest header run_sweep would produce for (spec, seed,
/// replications) — identity fields only, `cells` empty.  The supervisor
/// merges shard journals under exactly this header so the merged document
/// is byte-identical to a single-process run's.
Manifest manifest_header(const SweepSpec& spec, std::uint64_t seed,
                         std::size_t replications);

/// The cache key of one cell under an effective (seed, replications):
/// folds spec name, spec version, seed, replications, and the cell's
/// parameters.  Exposed for tests and tooling that prune cache directories.
std::uint64_t cell_cache_key(const SweepSpec& spec, std::uint64_t seed,
                             std::size_t replications, const Cell& cell);

/// The git revision baked in at configure time ("unknown" outside a git
/// checkout).  Recorded in manifests; ignored by compare_manifests.
std::string git_revision();

}  // namespace gridtrust::lab
