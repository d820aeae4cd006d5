#include "lab/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/subprocess.hpp"
#include "obs/json_in.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::lab {

namespace {

const obs::Counter kWorkersSpawned("lab.supervisor.workers_spawned");
const obs::Counter kWorkersLost("lab.supervisor.workers_lost");
const obs::Counter kWorkersRespawned("lab.supervisor.workers_respawned");
const obs::Counter kCellsReassigned("lab.supervisor.cells_reassigned");
const obs::Counter kHeartbeatsMissed("lab.supervisor.heartbeats_missed");

// Frame protocol (child -> coordinator), one tag byte then payload:
//   "H"          heartbeat
//   "C<json>"    a finalized cell (ok or failed), already journaled
constexpr char kFrameHeartbeat = 'H';
constexpr char kFrameCell = 'C';

/// Coordinator poll cadence: short enough that heartbeat deadlines are
/// checked promptly, long enough not to busy-spin a single-core box.
constexpr int kPollMs = 25;

/// The child's SIGTERM flag.  File-scope because signal handlers cannot
/// capture; only ever set in a forked worker, so the parent's copy stays
/// false.
std::atomic<bool> g_worker_cancel{false};

extern "C" void worker_term_handler(int) {
  g_worker_cancel.store(true, std::memory_order_relaxed);
}

/// Child exit codes with supervisor-level meaning (everything else is a
/// classified failure, see common/subprocess kClassExitBase).
constexpr int kExitComplete = 0;
constexpr int kExitPartial = 4;
constexpr int kExitInterrupted = 130;

std::string shard_journal_path(const std::string& shard_dir,
                               std::size_t worker) {
  return shard_dir + "/shard-" + std::to_string(worker) + ".journal";
}

/// The worker process body: run the engine serially over this shard,
/// resuming from the shard journal, streaming cells and heartbeats.
int worker_main(const FrameWriter& writer, const SweepSpec& spec,
                const EngineOptions& engine,
                const std::vector<std::size_t>& subset,
                const std::string& journal_path, double heartbeat_interval_s,
                const chaos::WorkerFaultPlan* plan) {
  // A coordinator that died mid-run closes the pipe; without this the
  // resulting SIGPIPE would kill the worker silently instead of surfacing
  // a classified system_error exit.
  std::signal(SIGPIPE, SIG_IGN);
  g_worker_cancel.store(false, std::memory_order_relaxed);
  std::signal(SIGTERM, worker_term_handler);

  writer.send(std::string(1, kFrameHeartbeat));  // early sign of life

  EngineOptions options = engine;
  options.jobs = 1;  // the parallelism IS the process fan-out
  options.pool = nullptr;
  options.cell_subset = &subset;
  options.journal_path = journal_path;
  options.resume_journal = journal_path;  // missing file == empty journal
  // Workers never abort on failures: every failed cell is reported to the
  // coordinator, which owns the run-level budget decision.
  options.failure_budget_pct = 100.0;
  options.cancel = &g_worker_cancel;

  std::size_t fresh_cells = 0;
  options.on_cell_complete = [&](const ManifestCell& cell) {
    // The journal flush already happened (engine contract), so the
    // coordinator can treat this frame as durable progress.
    writer.send(kFrameCell + cell_to_json(cell));
    ++fresh_cells;
    if (plan != nullptr && fresh_cells == plan->after_cells) {
      self_signal(plan->signal);
    }
  };
  double last_heartbeat = monotonic_seconds();
  options.on_unit_complete = [&] {
    const double now = monotonic_seconds();
    if (now - last_heartbeat >= heartbeat_interval_s) {
      writer.send(std::string(1, kFrameHeartbeat));
      last_heartbeat = now;
    }
  };

  const SweepRun run = run_sweep(spec, options);
  switch (run.manifest.outcome) {
    case RunOutcome::kComplete: return kExitComplete;
    case RunOutcome::kPartial: return kExitPartial;
    case RunOutcome::kInterrupted: return kExitInterrupted;
  }
  return kExitComplete;
}

/// One worker slot's supervision state.
struct WorkerSlot {
  std::vector<std::size_t> subset;  // grid indices owned by this shard
  ChildProcess child;
  FrameReader reader{-1};
  double last_seen = 0.0;
  std::size_t respawns = 0;     // replacements consumed
  std::size_t incarnation = 0;  // spawn count (fault plans key on this)
  bool done = false;            // shard finished (complete/partial)
  bool interrupted = false;     // shard drained on SIGTERM
  bool dead = false;            // surrendered (non-transient / budget out)
  ErrorClass death_class = ErrorClass::kUnknown;
  std::string death_reason;

  bool live() const { return !done && !interrupted && !dead; }
};

/// `ok` cells already journaled by a shard (used to size reassignments).
std::size_t journaled_ok_cells(const std::string& path) {
  try {
    if (std::optional<Journal> journal = load_journal(path)) {
      std::size_t ok = 0;
      for (const ManifestCell& cell : journal->cells) {
        if (cell.status == CellStatus::kOk) ++ok;
      }
      return ok;
    }
  } catch (const PreconditionError&) {
    // Unusable journal (foreign or corrupt header): the replacement
    // worker will fail on it too — but that is *its* triage to report.
  }
  return 0;
}

}  // namespace

ShardMerge merge_shards(const SweepSpec& spec, std::uint64_t seed,
                        std::size_t replications,
                        const std::vector<Journal>& journals,
                        const std::vector<ManifestCell>& streamed) {
  ShardMerge merge;
  merge.manifest = manifest_header(spec, seed, replications);
  const std::vector<Cell> cells = spec.cells();
  merge.manifest.cells.resize(cells.size());

  std::vector<std::string> expected_hash(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expected_hash[i] = hash_hex(cell_param_hash(cells[i]));
  }

  std::vector<char> seen(cells.size(), 0);
  const auto admit = [&](const ManifestCell& cell) {
    if (cell.index >= cells.size() ||
        cell.param_hash != expected_hash[cell.index]) {
      log_warn("dropping shard cell ", cell.index,
               ": not a cell of this grid");
      return;
    }
    ManifestCell& slot = merge.manifest.cells[cell.index];
    if (seen[cell.index] != 0 && slot.status == CellStatus::kOk &&
        cell.status != CellStatus::kOk) {
      return;  // an ok record is never demoted by a stale failure
    }
    slot = cell;
    seen[cell.index] = 1;
  };

  for (const Journal& journal : journals) {
    if (journal.spec_hash != merge.manifest.spec_hash) {
      log_warn("dropping shard journal for spec ", journal.spec,
               ": foreign spec hash");
      continue;
    }
    for (const ManifestCell& cell : journal.cells) admit(cell);
  }
  for (const ManifestCell& cell : streamed) admit(cell);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (seen[i] != 0) {
      merge.units_failed += merge.manifest.cells[i].failures.size();
      continue;
    }
    ManifestCell& slot = merge.manifest.cells[i];
    slot.index = cells[i].index;
    slot.params = cells[i].params;
    slot.param_hash = expected_hash[i];
    slot.replications = replications;
    slot.status = CellStatus::kSkipped;
    merge.missing.push_back(i);
  }
  return merge;
}

SupervisorRun run_supervised(const SweepSpec& spec,
                             const EngineOptions& engine,
                             const SupervisorOptions& options) {
  GT_REQUIRE(options.workers >= 1, "need at least one worker");
  GT_REQUIRE(!options.shard_dir.empty(),
             "supervised runs need a shard directory");
  GT_REQUIRE(engine.journal_path.empty() && engine.resume_journal.empty(),
             "supervised runs own their journals; use --shard-dir");
  GT_REQUIRE(spec.run != nullptr, "spec \"" + spec.name + "\" has no runner");
  for (const chaos::WorkerFaultPlan& plan : options.fault_plans) {
    chaos::validate_plan(plan);
    GT_REQUIRE(plan.worker < options.workers,
               "fault plan targets worker " + std::to_string(plan.worker) +
                   " of " + std::to_string(options.workers));
  }
  std::filesystem::create_directories(options.shard_dir);

  const double t0 = monotonic_seconds();
  const std::uint64_t seed = engine.seed.value_or(spec.seed);
  const std::size_t replications =
      engine.replications.value_or(spec.replications);
  const std::vector<Cell> cells = spec.cells();

  SupervisorRun run;
  run.cells = cells.size();

  std::vector<WorkerSlot> slots(options.workers);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    slots[i % options.workers].subset.push_back(i);
  }

  std::vector<ManifestCell> streamed;  // frame-delivered cells, in order

  const auto fault_plan_for =
      [&](std::size_t worker,
          std::size_t incarnation) -> const chaos::WorkerFaultPlan* {
    for (const chaos::WorkerFaultPlan& plan : options.fault_plans) {
      if (plan.worker == worker && incarnation < plan.incarnations) {
        return &plan;
      }
    }
    return nullptr;
  };

  const auto spawn = [&](std::size_t w) {
    WorkerSlot& slot = slots[w];
    const std::string journal = shard_journal_path(options.shard_dir, w);
    const chaos::WorkerFaultPlan* plan = fault_plan_for(w, slot.incarnation);
    // Siblings' read ends must not survive into the child: a worker that
    // outlives a crashed coordinator would otherwise hold sibling pipes
    // open and mask their EOFs.
    std::vector<int> close_in_child;
    for (const WorkerSlot& other : slots) {
      if (other.child.valid() && other.child.channel_fd() >= 0) {
        close_in_child.push_back(other.child.channel_fd());
      }
    }
    slot.child = ChildProcess::spawn(
        [&, plan, journal](const FrameWriter& writer) {
          return worker_main(writer, spec, engine, slot.subset, journal,
                             options.heartbeat_interval_s, plan);
        },
        close_in_child);
    slot.reader = FrameReader(slot.child.channel_fd());
    slot.last_seen = monotonic_seconds();
    ++slot.incarnation;
    ++run.counters.workers_spawned;
    kWorkersSpawned.add();
  };

  for (std::size_t w = 0; w < options.workers; ++w) spawn(w);

  const auto drain_slot = [&](WorkerSlot& slot) {
    std::vector<std::string> frames;
    slot.reader.drain(frames);
    for (const std::string& frame : frames) {
      if (frame.empty()) continue;
      slot.last_seen = monotonic_seconds();
      if (frame[0] == kFrameCell) {
        streamed.push_back(
            parse_manifest_cell(obs::parse_json(frame.substr(1))));
      }
      // kFrameHeartbeat carries no payload; last_seen refresh is the point.
    }
  };

  // A lost worker (abnormal exit or hang) lands here: transient classes
  // respawn with seeded backoff until the slot's budget runs out, then the
  // shard's remaining cells are surrendered to the merge as failures.
  const auto triage = [&](std::size_t w, ErrorClass error_class,
                          const std::string& reason) {
    WorkerSlot& slot = slots[w];
    ++run.counters.workers_lost;
    kWorkersLost.add();
    log_warn("worker ", w, " lost (", to_string(error_class), "): ", reason);
    if (is_transient(error_class) && slot.respawns < options.max_respawns) {
      ++slot.respawns;
      const std::uint64_t backoff = options.respawn_backoff.backoff_ms(
          slot.respawns, error_class, seed ^ (0x51ed270b9f112a5dULL * w));
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      const std::size_t already_ok =
          journaled_ok_cells(shard_journal_path(options.shard_dir, w));
      const std::size_t remaining =
          slot.subset.size() - std::min(already_ok, slot.subset.size());
      run.counters.cells_reassigned += remaining;
      kCellsReassigned.add(static_cast<double>(remaining));
      ++run.counters.workers_respawned;
      kWorkersRespawned.add();
      spawn(w);
    } else {
      slot.dead = true;
      slot.death_class = error_class;
      slot.death_reason = reason;
    }
  };

  bool termed = false;  // SIGTERM fan-out already done
  for (;;) {
    bool any_live = false;
    std::vector<int> fds(slots.size(), -1);
    for (std::size_t w = 0; w < slots.size(); ++w) {
      if (slots[w].live()) {
        any_live = true;
        fds[w] = slots[w].child.channel_fd();
      }
    }
    if (!any_live) break;

    if (!termed && options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      for (WorkerSlot& slot : slots) {
        if (slot.live()) slot.child.send_signal(SIGTERM);
      }
      termed = true;
    }

    for (const std::size_t w : wait_readable(fds, kPollMs)) {
      drain_slot(slots[w]);
    }

    const double now = monotonic_seconds();
    for (std::size_t w = 0; w < slots.size(); ++w) {
      WorkerSlot& slot = slots[w];
      if (!slot.live()) continue;

      if (const std::optional<ExitStatus> exit = slot.child.poll_exit()) {
        drain_slot(slot);  // frames can race the exit; never drop them
        slot.child.close_channel();
        if (!exit->signaled && (exit->code == kExitComplete ||
                                exit->code == kExitPartial)) {
          slot.done = true;
        } else if (!exit->signaled && exit->code == kExitInterrupted) {
          slot.interrupted = true;
        } else if (termed) {
          // Cancellation is in flight: deaths past the SIGTERM fan-out are
          // expected (the signal can land before a fresh child installs its
          // handler) and must not trigger respawns — a replacement would
          // never see the already-delivered SIGTERM and run to completion.
          slot.interrupted = true;
        } else {
          triage(w, classify_exit(*exit), exit->describe());
        }
        continue;
      }

      if (now - slot.last_seen > options.heartbeat_timeout_s) {
        ++run.counters.heartbeats_missed;
        kHeartbeatsMissed.add();
        slot.child.send_signal(SIGKILL);
        (void)slot.child.wait_exit();
        drain_slot(slot);
        slot.child.close_channel();
        if (termed) {
          slot.interrupted = true;  // hung during drain-out: still cancelled
        } else {
          triage(w, ErrorClass::kTimeout,
                 "no heartbeat for " +
                     std::to_string(options.heartbeat_timeout_s) + " s");
        }
      }
    }
  }

  // Merge: shard journals first (completion order within each shard),
  // then streamed frames — which include *failed* cells the journals
  // never record.
  std::vector<Journal> journals;
  for (std::size_t w = 0; w < slots.size(); ++w) {
    try {
      if (std::optional<Journal> journal = load_journal(
              shard_journal_path(options.shard_dir, w))) {
        journals.push_back(std::move(*journal));
      }
    } catch (const PreconditionError& e) {
      log_warn("shard ", w, " journal unusable: ", e.what());
    }
  }
  ShardMerge merge =
      merge_shards(spec, seed, replications, journals, streamed);
  run.manifest = std::move(merge.manifest);

  // Cells no shard accounted for: an interrupted shard's are legitimately
  // skipped (they re-run on resume); a dead shard's become structured
  // failures carrying the triage verdict.
  const bool cancelled = options.cancel != nullptr &&
                         options.cancel->load(std::memory_order_relaxed);
  bool any_skipped = false;
  for (const std::size_t i : merge.missing) {
    WorkerSlot& slot = slots[i % options.workers];
    ManifestCell& cell = run.manifest.cells[i];
    if (slot.interrupted || (cancelled && !slot.dead)) {
      any_skipped = true;
      continue;  // merge_shards already marked it skipped
    }
    UnitFailure failure;
    failure.rep = replications;  // sentinel: the whole cell was lost
    failure.seed = seed;
    failure.error_class = slot.dead ? slot.death_class : ErrorClass::kUnknown;
    failure.message = "worker " + std::to_string(i % options.workers) +
                      " died: " +
                      (slot.dead ? slot.death_reason : "shard incomplete");
    failure.attempts = slot.respawns + 1;
    cell.status = CellStatus::kFailed;
    cell.failures.push_back(std::move(failure));
    ++merge.units_failed;
  }

  for (const ManifestCell& cell : run.manifest.cells) {
    if (cell.status == CellStatus::kFailed) ++run.cells_failed;
  }

  if (cancelled && any_skipped) {
    run.manifest.outcome = RunOutcome::kInterrupted;
  } else if (merge.units_failed > 0) {
    const std::size_t total_units = cells.size() * replications;
    const double failed_pct = 100.0 *
                              static_cast<double>(merge.units_failed) /
                              static_cast<double>(total_units);
    if (failed_pct > engine.failure_budget_pct) {
      for (const ManifestCell& cell : run.manifest.cells) {
        if (cell.status != CellStatus::kFailed) continue;
        throw std::runtime_error(
            "supervised sweep over failure budget; first failure (cell " +
            std::to_string(cell.index) + "): " + cell.failures.front().message);
      }
    }
    run.manifest.outcome = RunOutcome::kPartial;
  }

  run.wall_seconds = monotonic_seconds() - t0;
  return run;
}

}  // namespace gridtrust::lab
