// Crash-tolerant multi-process shard supervisor for the sweep engine.
//
// `run_supervised` partitions a sweep's grid across forked worker
// processes (round-robin: cell i -> shard i % workers).  Each worker runs
// the ordinary in-process engine over its shard with a private checkpoint
// journal, streaming completed cells and heartbeats to the coordinator
// over a length-prefixed pipe (common/subprocess).  The coordinator's job
// is triage: a worker that dies — SIGKILL, SIGSEGV, a classified nonzero
// exit, or a missed heartbeat deadline — is diagnosed through the
// common/retry taxonomy and, when the failure is transient, respawned
// with capped exponential backoff; the replacement *resumes from the
// shard journal*, so completed cells are never recomputed and per-unit
// seeds are preserved.  Deterministic failures (and workers that exhaust
// their respawn budget) surrender their remaining cells as structured
// failures, honoring the engine's failure budget for graceful
// degradation to `outcome: partial`.
//
// Determinism contract, inherited from the engine: every unit's seed is a
// pure function of (spec, seed, cell, rep), so the merged manifest is
// byte-identical to a single-process `--jobs 1` run — including after a
// worker was SIGKILLed mid-shard and its journal re-anchored.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/faults.hpp"
#include "common/retry.hpp"
#include "lab/engine.hpp"
#include "lab/journal.hpp"

namespace gridtrust::lab {

/// Supervision knobs.  Like EngineOptions, none of these can change the
/// *numbers* — they decide how worker-process death is handled around the
/// deterministic per-unit computation.
struct SupervisorOptions {
  /// Worker processes (>= 1).  Cells partition round-robin across them.
  std::size_t workers = 2;
  /// Directory for per-shard checkpoint journals (`shard-<w>.journal`);
  /// created if missing.  Required: the journals are the crash-recovery
  /// substrate, so there is no journal-less supervised mode.
  std::string shard_dir;
  /// Workers emit a heartbeat frame at most this often (gated on unit
  /// completion, so a healthy-but-busy worker heartbeats at unit cadence).
  double heartbeat_interval_s = 0.05;
  /// A worker silent for longer than this is declared hung, SIGKILLed,
  /// and triaged as a `timeout` failure.
  double heartbeat_timeout_s = 5.0;
  /// Respawn attempts per worker slot before its remaining cells are
  /// surrendered as failures.  Only transient classes (resource, timeout,
  /// unknown) respawn at all — a deterministic class would die identically.
  std::size_t max_respawns = 3;
  /// Backoff schedule between respawns of one slot (max_attempts unused);
  /// jitter is seeded per (slot, attempt) so storms de-synchronize
  /// deterministically.
  RetryPolicy respawn_backoff;
  /// Process-level chaos: scripted worker suicides (see chaos::
  /// WorkerFaultPlan) that exercise this module's own recovery path.
  std::vector<chaos::WorkerFaultPlan> fault_plans;
  /// Cooperative cancellation: once set, every live worker gets SIGTERM,
  /// drains its in-flight unit, journals, and exits `interrupted`.
  const std::atomic<bool>* cancel = nullptr;
};

/// What the supervisor counted; the same counts go to the process-wide
/// obs counters "lab.supervisor.*".
struct SupervisorCounters {
  std::uint64_t workers_spawned = 0;    ///< initial spawns + respawns
  std::uint64_t workers_lost = 0;       ///< abnormal exits + hang kills
  std::uint64_t workers_respawned = 0;  ///< replacements actually started
  std::uint64_t cells_reassigned = 0;   ///< cells handed to a replacement
  std::uint64_t heartbeats_missed = 0;  ///< deadline expiries (-> SIGKILL)
};

/// One supervised run: the merged manifest plus execution facts that stay
/// out of it (the manifest must remain byte-stable across worker counts).
struct SupervisorRun {
  Manifest manifest;
  SupervisorCounters counters;
  std::size_t cells = 0;
  std::size_t cells_failed = 0;
  double wall_seconds = 0.0;
};

/// Runs the sweep under process supervision.  `engine` supplies the
/// numeric identity (seed, replications) and per-unit policies, which are
/// inherited by every worker; `engine.jobs/pool` are ignored (workers run
/// serially — the parallelism *is* the process fan-out) and
/// `engine.journal_path`/`resume_journal` must be empty (shards own their
/// journals).  Throws PreconditionError on invalid options and rethrows
/// the first failure as std::runtime_error when the failure budget is
/// exceeded, after every salvageable shard has been merged.
SupervisorRun run_supervised(const SweepSpec& spec,
                             const EngineOptions& engine,
                             const SupervisorOptions& options);

/// Deterministic merge of shard journals plus frame-streamed cells under
/// the exact single-process manifest header.  Precedence per cell: an `ok`
/// record beats a failed one (a reassigned cell that later succeeded
/// wins); among records of equal standing the *last* input wins, with
/// `journals` (in order) processed before `streamed` (in arrival order).
/// Records whose param_hash does not match this grid, and journals whose
/// spec_hash is foreign, are dropped with a warning.  Exposed for tests.
struct ShardMerge {
  Manifest manifest;  ///< missing cells carry identity + status skipped
  std::vector<std::size_t> missing;  ///< grid indices no shard accounted for
  std::size_t units_failed = 0;      ///< failure records across merged cells
};
ShardMerge merge_shards(const SweepSpec& spec, std::uint64_t seed,
                        std::size_t replications,
                        const std::vector<Journal>& journals,
                        const std::vector<ManifestCell>& streamed);

}  // namespace gridtrust::lab
