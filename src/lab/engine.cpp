#include "lab/engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/sync.hpp"
#include "lab/cache.hpp"
#include "lab/journal.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::lab {

namespace {

const obs::Counter kCellsRun("lab.cells_run");
const obs::Counter kCacheHits("lab.cache_hits");
const obs::Counter kUnitsRun("lab.units_run");
const obs::Counter kRetries("lab.retries");
const obs::Counter kFailures("lab.failures");
const obs::Histogram kUnitNs("lab.unit_ns", obs::duration_bounds_ns());

/// Aggregates one cell's per-replication reports (the [begin, end) slice of
/// the flat unit-result array) in first-seen metric order.  Failed units
/// hold default-constructed (empty) reports, so they contribute nothing and
/// each metric's n records the surviving sample count.
AggregateSet aggregate_reports(const std::vector<obs::RunReport>& all,
                               std::size_t begin, std::size_t end) {
  AggregateSet out;
  std::vector<std::string> order;
  std::unordered_set<std::string> seen;
  for (std::size_t r = begin; r < end; ++r) {
    for (const std::string& name : all[r].names()) {
      if (seen.insert(name).second) order.push_back(name);
    }
  }
  for (const std::string& name : order) {
    RunningStats stats;
    for (std::size_t r = begin; r < end; ++r) {
      if (all[r].has(name)) stats.add(all[r].get(name));
    }
    out.set(name, MetricAggregate{stats.mean(), stats.ci95_halfwidth(),
                                  stats.count()});
  }
  return out;
}

/// How one (cell, replication) unit ended.
enum class UnitState : unsigned char { kNotRun, kOk, kFailed };

}  // namespace

std::uint64_t cell_cache_key(const SweepSpec& spec, std::uint64_t seed,
                             std::size_t replications, const Cell& cell) {
  std::string canon = spec.name;
  canon += '\x1f';
  canon += spec.version;
  canon += '\x1f';
  canon += std::to_string(seed);
  canon += '\x1f';
  canon += std::to_string(replications);
  canon += '\x1f';
  canon += hash_hex(cell_param_hash(cell));
  return fnv1a64(canon);
}

std::string git_revision() {
#ifdef GRIDTRUST_GIT_REV
  return GRIDTRUST_GIT_REV;
#else
  return "unknown";
#endif
}

Manifest manifest_header(const SweepSpec& spec, std::uint64_t seed,
                         std::size_t replications) {
  Manifest manifest;
  manifest.spec = spec.name;
  manifest.title = spec.title;
  manifest.git_rev = git_revision();
  manifest.seed = seed;
  manifest.replications = replications;
  manifest.tolerance_pct = spec.tolerance_pct;
  // The hash records the sweep as actually run (overrides applied).
  SweepSpec effective = spec;
  effective.seed = seed;
  effective.replications = replications;
  manifest.spec_hash = hash_hex(effective.content_hash());
  return manifest;
}

SweepRun run_sweep(const SweepSpec& spec, const EngineOptions& options) {
  GT_REQUIRE(spec.run != nullptr,
             "spec \"" + spec.name + "\" has no runner");
  GT_REQUIRE(options.retry.max_attempts >= 1,
             "retry policy needs at least one attempt");
  // gt-lint: allow(GT001 wall_seconds is engine metadata, never exported)
  const auto t0 = std::chrono::steady_clock::now();

  const std::uint64_t seed = options.seed.value_or(spec.seed);
  const std::size_t replications =
      options.replications.value_or(spec.replications);
  GT_REQUIRE(replications >= 1, "need at least one replication");

  SweepRun run;
  run.manifest = manifest_header(spec, seed, replications);

  const std::vector<Cell> cells = spec.cells();
  GT_REQUIRE(cells.empty() ||
                 replications <= std::numeric_limits<std::size_t>::max() /
                                     cells.size(),
             "cells x replications overflows the unit count");
  run.manifest.cells.resize(cells.size());

  // Shard restriction: only subset cells are eligible to run, resume, or
  // count toward the budget; the rest stay default-initialized (the
  // supervisor overwrites them from sibling shards during the merge).
  std::vector<char> eligible(cells.size(), 1);
  std::size_t eligible_count = cells.size();
  if (options.cell_subset != nullptr) {
    std::fill(eligible.begin(), eligible.end(), 0);
    eligible_count = 0;
    for (const std::size_t i : *options.cell_subset) {
      GT_REQUIRE(i < cells.size(),
                 "cell_subset index " + std::to_string(i) +
                     " outside the grid (" + std::to_string(cells.size()) +
                     " cells)");
      if (eligible[i] == 0) ++eligible_count;
      eligible[i] = 1;
    }
  }
  run.cells = eligible_count;

  std::unique_ptr<ResultCache> cache;
  if (!options.cache_dir.empty()) {
    cache = std::make_unique<ResultCache>(options.cache_dir);
  }

  // The checkpoint journal: the header plus any resumed or cached cells is
  // written atomically once, then each cleanly completed cell is appended
  // as one line, so a crash at any instant leaves a parseable record of
  // the finished work (at worst with a torn last line, which
  // parse_journal drops).
  Journal journal;
  journal.spec = spec.name;
  journal.spec_hash = run.manifest.spec_hash;
  journal.seed = seed;
  journal.replications = replications;
  const bool journaling = !options.journal_path.empty();

  // Resume: re-anchor the previous run's completed cells onto this grid.
  // Only `ok` cells short-circuit — failed cells get a fresh chance.
  // Duplicate entries for one cell (a shard journal appended to after a
  // partial flush, or two shards that both journaled a reassigned cell)
  // resolve last-wins: the later record reflects the later, complete run.
  std::vector<char> done(cells.size(), 0);
  if (!options.resume_journal.empty()) {
    if (std::optional<Journal> previous =
            load_journal(options.resume_journal)) {
      GT_REQUIRE(previous->spec_hash == run.manifest.spec_hash,
                 "resume journal \"" + options.resume_journal +
                     "\" records spec " + previous->spec + "/" +
                     previous->spec_hash + ", not this sweep (" + spec.name +
                     "/" + run.manifest.spec_hash + ")");
      std::vector<std::size_t> journal_slot(cells.size(), 0);
      for (ManifestCell& cell : previous->cells) {
        if (cell.status != CellStatus::kOk) continue;
        if (cell.index >= cells.size()) continue;
        const std::size_t i = cell.index;
        if (eligible[i] == 0) continue;
        if (cell.param_hash != hash_hex(cell_param_hash(cells[i]))) continue;
        run.manifest.cells[i] = cell;
        if (done[i]) {
          journal.cells[journal_slot[i]] = std::move(cell);
          continue;
        }
        done[i] = 1;
        journal_slot[i] = journal.cells.size();
        journal.cells.push_back(std::move(cell));
        ++run.cells_resumed;
      }
    } else {
      log_warn("resume journal ", options.resume_journal,
               " does not exist; running the full sweep");
    }
  }

  // Resolve cache hits next so only genuinely missing cells fan out.
  std::vector<std::size_t> missing;  // indices into `cells`
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (eligible[i] == 0 || done[i]) continue;
    const Cell& cell = cells[i];
    if (cache != nullptr) {
      const std::uint64_t key = cell_cache_key(spec, seed, replications, cell);
      if (std::optional<ManifestCell> hit = cache->load(key);
          hit.has_value() && hit->params == cell.params) {
        hit->index = cell.index;  // re-anchor to this run's grid position
        run.manifest.cells[i] = *hit;
        ++run.cache_hits;
        kCacheHits.add();
        if (journaling) journal.cells.push_back(std::move(*hit));
        continue;
      }
    }
    missing.push_back(i);
  }

  std::optional<AppendFile> journal_tail;
  Mutex journal_mutex;  // one append at a time, so lines go out whole
  if (journaling) {
    // Write the header (plus any resumed/cached prefix) before work starts,
    // so even a crash in the first cell leaves a resumable journal.  A
    // resume rewrites the whole file here, so no line is ever appended
    // onto a torn tail.
    atomic_write_file(options.journal_path, journal_to_jsonl(journal));
    journal_tail.emplace(options.journal_path);
  }

  // Fan out (cell, replication) units over the pool; every unit owns a
  // preallocated slot, so execution order cannot affect the results.  Each
  // unit is fault-contained: a throw from the runner is retried per the
  // policy (same derived seed — determinism preserved) and recorded as a
  // structured UnitFailure on exhaustion instead of aborting the sweep.
  const std::size_t units = missing.size() * replications;
  std::vector<obs::RunReport> reports(units);
  std::vector<UnitState> unit_states(units, UnitState::kNotRun);
  std::vector<UnitFailure> unit_failures(units);

  // Counts tracked atomically because workers update them concurrently.
  std::atomic<std::size_t> units_run{0};
  std::atomic<std::size_t> units_failed{0};
  std::atomic<std::size_t> units_retried{0};

  // With the zero failure budget the contract is "rethrow the first
  // failure": keep the exhausted exception with the lowest unit index so
  // the choice is deterministic under any worker interleaving.
  FirstErrorSlot first_error;

  // Per-cell countdown: the worker that completes a cell's last unit
  // finalizes it (aggregate + cache store + journal append) immediately, so
  // checkpoints land as cells finish, not at the end of the sweep.
  auto remaining =
      std::make_unique<std::atomic<std::size_t>[]>(missing.size());
  for (std::size_t m = 0; m < missing.size(); ++m) {
    remaining[m].store(replications, std::memory_order_relaxed);
  }
  Mutex finalize_mutex;  // serializes cache stores + completion callbacks

  const auto finalize_cell = [&](std::size_t m) {
    const std::size_t i = missing[m];
    const Cell& cell = cells[i];
    kCellsRun.add();

    ManifestCell out;
    out.index = cell.index;
    out.params = cell.params;
    out.param_hash = hash_hex(cell_param_hash(cell));
    out.replications = replications;
    for (std::size_t rep = 0; rep < replications; ++rep) {
      const std::size_t unit = m * replications + rep;
      if (unit_states[unit] == UnitState::kFailed) {
        out.failures.push_back(unit_failures[unit]);
      }
    }
    out.status =
        out.failures.empty() ? CellStatus::kOk : CellStatus::kFailed;
    out.metrics =
        aggregate_reports(reports, m * replications, (m + 1) * replications)
            .entries();
    if (out.status == CellStatus::kOk && spec.finalize) {
      AggregateSet aggregate;
      for (const auto& [name, metric] : out.metrics) {
        aggregate.set(name, metric);
      }
      try {
        spec.finalize(cell, aggregate);
        out.metrics = aggregate.entries();
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        UnitFailure failure;
        failure.rep = replications;  // sentinel: not a replication failure
        failure.seed = seed;
        failure.error_class = classify_error(error);
        failure.message = "finalize: " + describe_error(error);
        out.failures.push_back(std::move(failure));
        out.status = CellStatus::kFailed;
        units_failed.fetch_add(1, std::memory_order_relaxed);
        kFailures.add();
        first_error.note((m + 1) * replications - 1, error);
      }
    }

    // Serialized outside every lock; only the append is serialized.
    std::string line;
    if (journal_tail && out.status == CellStatus::kOk) {
      line = cell_to_json(out);
      line += '\n';
    }
    {
      const MutexLock lock(&finalize_mutex);
      if (out.status == CellStatus::kOk && cache != nullptr) {
        cache->store(cell_cache_key(spec, seed, replications, cell), out);
      }
      run.manifest.cells[i] = std::move(out);
    }
    if (!line.empty()) {
      const MutexLock lock(&journal_mutex);
      journal_tail->append(line);
    }
    // Fired after the append returns, so the line is durable and a
    // subscriber (the supervisor's worker loop) never acknowledges a cell
    // the journal could still lose.
    if (options.on_cell_complete) {
      const MutexLock lock(&finalize_mutex);
      options.on_cell_complete(run.manifest.cells[i]);
    }
  };

  const auto run_unit = [&](std::size_t unit) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return;  // drained: state stays kNotRun, cell countdown stays short
    }
    const std::size_t m = unit / replications;
    const Cell& cell = cells[missing[m]];
    const std::size_t rep = unit % replications;
    const std::uint64_t rep_seed =
        derive_rep_seed(seed, cell_param_hash(cell), rep);
    kUnitsRun.add();
    units_run.fetch_add(1, std::memory_order_relaxed);

    std::exception_ptr last_error;
    ErrorClass last_class = ErrorClass::kUnknown;
    std::size_t attempts = 0;
    for (; attempts < options.retry.max_attempts; ++attempts) {
      if (attempts > 0 && options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        // Interrupted mid-retry: leave the unit kNotRun (no countdown
        // decrement) so its cell is marked skipped and re-runs on resume.
        return;
      }
      if (attempts > 0) {
        kRetries.add();
        units_retried.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t backoff =
            options.retry.backoff_ms(attempts, last_class, rep_seed);
        if (backoff > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        }
      }
      // gt-lint: allow(GT001 unit deadlines measure real elapsed time)
      const auto attempt_start = std::chrono::steady_clock::now();
      try {
        obs::ScopedTimer timer(kUnitNs);
        if (options.unit_sleep_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options.unit_sleep_ms));
        }
        obs::RunReport report = spec.run(cell, rep_seed);
        if (options.unit_deadline_seconds > 0.0) {
          const double elapsed =
              // gt-lint: allow(GT001 deadline check against wall time only)
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            attempt_start)
                  .count();
          if (elapsed > options.unit_deadline_seconds) {
            last_error = std::make_exception_ptr(std::runtime_error(
                "unit overran its deadline (" + std::to_string(elapsed) +
                " s > " + std::to_string(options.unit_deadline_seconds) +
                " s)"));
            last_class = ErrorClass::kTimeout;
            continue;  // result discarded; retried like any transient
          }
        }
        reports[unit] = std::move(report);
        unit_states[unit] = UnitState::kOk;
        break;
      } catch (...) {
        last_error = std::current_exception();
        last_class = classify_error(last_error);
      }
    }

    if (unit_states[unit] != UnitState::kOk) {
      UnitFailure failure;
      failure.rep = rep;
      failure.seed = rep_seed;
      failure.error_class = last_class;
      failure.message = describe_error(last_error);
      failure.attempts = attempts;
      unit_failures[unit] = std::move(failure);
      unit_states[unit] = UnitState::kFailed;
      units_failed.fetch_add(1, std::memory_order_relaxed);
      kFailures.add();
      first_error.note(unit, last_error);
    }

    // acq_rel: the finalizing (last) decrementer must observe every other
    // unit's report/state writes.
    if (remaining[m].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finalize_cell(m);
    }
    if (options.on_unit_complete) options.on_unit_complete();
  };

  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr && options.jobs == 0) pool = &ThreadPool::shared();
  if (pool == nullptr && options.jobs >= 2) {
    owned = std::make_unique<ThreadPool>(options.jobs);
    pool = owned.get();
  }
  if (pool != nullptr) {
    pool->parallel_for(units, run_unit);
  } else {
    for (std::size_t unit = 0; unit < units; ++unit) run_unit(unit);
  }

  run.units_run = units_run.load();
  run.units_failed = units_failed.load();
  run.units_retried = units_retried.load();

  // Cells whose countdown never hit zero were cut short by cancellation:
  // mark them skipped (partial replications are never aggregated, so a
  // resumed run stays bit-identical to an uninterrupted one).
  bool any_skipped = false;
  for (std::size_t m = 0; m < missing.size(); ++m) {
    if (remaining[m].load(std::memory_order_acquire) == 0) {
      if (run.manifest.cells[missing[m]].status == CellStatus::kFailed) {
        ++run.cells_failed;
      }
      continue;
    }
    any_skipped = true;
    ++run.cells_skipped;
    const Cell& cell = cells[missing[m]];
    ManifestCell& out = run.manifest.cells[missing[m]];
    out.index = cell.index;
    out.params = cell.params;
    out.param_hash = hash_hex(cell_param_hash(cell));
    out.replications = replications;
    out.status = CellStatus::kSkipped;
  }

  const bool cancelled =
      options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed);
  if (cancelled && any_skipped) {
    run.manifest.outcome = RunOutcome::kInterrupted;
  } else if (run.units_failed > 0) {
    const std::size_t total_units = eligible_count * replications;
    const double failed_pct = 100.0 *
                              static_cast<double>(run.units_failed) /
                              static_cast<double>(total_units);
    if (failed_pct > options.failure_budget_pct) {
      // Over budget (or strict zero-budget mode): the journal already
      // holds every completed cell, so completed work survives the throw.
      first_error.rethrow_if_error();
    }
    run.manifest.outcome = RunOutcome::kPartial;
  }

  run.wall_seconds =
      // gt-lint: allow(GT001 wall_seconds goes to the terminal, not manifest)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return run;
}

}  // namespace gridtrust::lab
