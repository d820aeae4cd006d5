// gridtrust_lab — the experiment catalog CLI.
//
//   gridtrust_lab list
//       All registered sweep specs and suites (docs/experiments-catalog.md
//       documents each one).
//   gridtrust_lab run <spec|suite>... [--jobs N] [--seed S]
//       [--replications R] [--out PATH] [--cache-dir DIR] [--csv]
//       [--metrics-out PATH] [--retries N] [--failure-budget PCT]
//       [--journal PATH] [--resume PATH] [--unit-deadline SECONDS]
//       [--workers N] [--shard-dir DIR] [--heartbeat-timeout SECONDS]
//       [--worker-respawns N] [--kill-worker K] [--kill-after-cells M]
//       Runs the named sweeps on the engine.  --jobs 0 uses the shared
//       hardware-sized pool; manifests are byte-identical for every --jobs
//       value.  --out writes the manifest (a directory when several specs
//       run).  --cache-dir skips cells whose content key was computed
//       before.  Failed units retry (--retries) and downgrade the run to a
//       partial manifest while within --failure-budget; --journal
//       checkpoints completed cells crash-safely and --resume re-loads
//       them.  SIGINT/SIGTERM drain in-flight units, flush the journal and
//       a partial manifest, and exit 130.
//       --workers N > 0 switches to the crash-tolerant multi-process
//       supervisor (docs/supervisor.md): cells shard across N forked
//       workers journaling into --shard-dir, dead workers are triaged and
//       respawned, and the merged manifest stays byte-identical to a
//       --jobs 1 run.  --kill-worker/--kill-after-cells script a chaos
//       worker suicide to drill the recovery path.
//   gridtrust_lab compare <manifest> <baseline> [--tolerance PCT]
//       Gates a manifest against a committed baseline; exits 1 on any
//       violated gate (CI uses this with baselines/).
//
// Exit codes (documented in docs/experiments-guide.md): 0 = complete runs
// / compare pass, 1 = compare violations, 2 = usage or fatal error
// (including a blown failure budget), 4 = partial outcome (failures within
// budget), 130 = interrupted.
#include <atomic>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <iostream>

#include "chaos/faults.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/render.hpp"
#include "lab/supervisor.hpp"
#include "obs/export.hpp"

namespace {

using namespace gridtrust;

// Exit codes beyond the conventional 0/1/2.
constexpr int kExitPartial = 4;
constexpr int kExitInterrupted = 130;  // 128 + SIGINT, the shell convention

std::atomic<bool> g_interrupted{false};

extern "C" void handle_signal(int) {
  // Only an async-signal-safe flag store: the engine polls it between
  // units, drains in-flight work, and flushes journal + partial manifest.
  g_interrupted.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  // Installed from main() before the pool spins up; the handler itself is
  // async-signal-safe (single relaxed atomic store).
  std::signal(SIGINT, handle_signal);   // NOLINT(concurrency-mt-unsafe)
  std::signal(SIGTERM, handle_signal);  // NOLINT(concurrency-mt-unsafe)
}

int cmd_list() {
  TextTable table({"name", "grid", "paper artifact", "title"});
  table.set_title("Registered sweep specs (docs/experiments-catalog.md)");
  for (const lab::SweepSpec& spec : lab::builtin_specs()) {
    std::string grid;
    std::size_t cells = 1;
    for (const lab::Axis& axis : spec.axes) cells *= axis.values.size();
    grid = std::to_string(cells) + " cells x " +
           std::to_string(spec.replications) + " reps";
    table.add_row({spec.name, grid, spec.paper_ref, spec.title});
  }
  std::cout << table << "\nSuites:\n";
  for (const auto& [name, members] : lab::suites()) {
    std::cout << "  " << name << ":";
    for (const std::string& member : members) std::cout << " " << member;
    std::cout << "\n";
  }
  return 0;
}

/// The --workers path: one spec, sharded across forked worker processes
/// (lab::run_supervised).  Same outcome -> exit-code mapping as cmd_run.
int cmd_run_supervised(const std::vector<std::string>& resolved,
                       const lab::EngineOptions& options,
                       const CliParser& cli) {
  GT_REQUIRE(resolved.size() == 1,
             "--workers supervises one spec at a time; run suites without it");
  GT_REQUIRE(options.journal_path.empty() && options.resume_journal.empty(),
             "--workers is incompatible with --journal/--resume: each shard "
             "owns a journal under --shard-dir");
  const lab::SweepSpec* spec = lab::find_spec(resolved.front());
  GT_REQUIRE(spec != nullptr, "unknown spec: " + resolved.front());

  lab::SupervisorOptions sup;
  sup.workers = static_cast<std::size_t>(cli.get_int("workers"));
  sup.shard_dir = cli.get_string("shard-dir");
  if (sup.shard_dir.empty()) sup.shard_dir = spec->name + ".shards";
  sup.heartbeat_timeout_s = cli.get_double("heartbeat-timeout");
  GT_REQUIRE(sup.heartbeat_timeout_s > 0.0,
             "--heartbeat-timeout must be > 0");
  const std::int64_t respawns = cli.get_int("worker-respawns");
  GT_REQUIRE(respawns >= 0, "--worker-respawns must be >= 0");
  sup.max_respawns = static_cast<std::size_t>(respawns);
  const std::int64_t kill_worker = cli.get_int("kill-worker");
  if (kill_worker >= 0) {
    chaos::WorkerFaultPlan plan;
    plan.worker = static_cast<std::size_t>(kill_worker);
    const std::int64_t after = cli.get_int("kill-after-cells");
    GT_REQUIRE(after >= 1, "--kill-after-cells must be >= 1");
    plan.after_cells = static_cast<std::size_t>(after);
    sup.fault_plans.push_back(plan);
  }
  sup.cancel = &g_interrupted;

  obs::MetricsExportScope metrics(cli);
  const lab::SupervisorRun run = lab::run_supervised(*spec, options, sup);

  const TextTable table = lab::sweep_table(*spec, run.manifest);
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  for (const std::string& line : lab::paired_summaries(run.manifest)) {
    std::cout << "  " << line << "\n";
  }
  std::cout << "  expected: " << spec->expected << "\n"
            << "  " << run.cells << " cells over " << sup.workers
            << " workers, " << format_grouped(run.wall_seconds, 2)
            << " s wall\n"
            << "  supervisor: " << run.counters.workers_spawned
            << " spawned, " << run.counters.workers_lost << " lost, "
            << run.counters.workers_respawned << " respawned, "
            << run.counters.cells_reassigned << " cells reassigned, "
            << run.counters.heartbeats_missed << " heartbeats missed\n";
  if (run.manifest.outcome != lab::RunOutcome::kComplete ||
      run.cells_failed > 0) {
    std::cout << "  outcome: " << lab::to_string(run.manifest.outcome)
              << " (" << run.cells_failed << " cells failed)\n";
    for (const lab::ManifestCell& cell : run.manifest.cells) {
      for (const lab::UnitFailure& failure : cell.failures) {
        std::cout << "    cell " << cell.index << " rep " << failure.rep
                  << " [" << to_string(failure.error_class) << " after "
                  << failure.attempts << " attempt(s)]: " << failure.message
                  << "\n";
      }
    }
  }
  std::cout << "\n";

  const std::string out_path = cli.get_string("out");
  if (!out_path.empty()) {
    atomic_write_file(out_path, lab::to_json(run.manifest));
    std::cout << "  manifest: " << out_path << "\n\n";
  }

  switch (run.manifest.outcome) {
    case lab::RunOutcome::kComplete: return 0;
    case lab::RunOutcome::kPartial: return kExitPartial;
    case lab::RunOutcome::kInterrupted: return kExitInterrupted;
  }
  return 0;
}

int cmd_run(const std::vector<std::string>& names, const CliParser& cli) {
  GT_REQUIRE(!names.empty(),
             "usage: gridtrust_lab run <spec|suite>... [--jobs N] ...");
  std::vector<std::string> resolved;
  for (const std::string& name : names) {
    const std::vector<std::string> expansion = lab::resolve_run_names(name);
    GT_REQUIRE(!expansion.empty(),
               "unknown spec or suite: " + name +
                   " (try `gridtrust_lab list`)");
    resolved.insert(resolved.end(), expansion.begin(), expansion.end());
  }

  lab::EngineOptions options;
  options.jobs = static_cast<std::size_t>(cli.get_uint("jobs"));
  if (cli.was_set("seed")) options.seed = cli.get_uint("seed");
  if (cli.was_set("replications")) {
    options.replications =
        static_cast<std::size_t>(cli.get_uint("replications"));
  }
  options.cache_dir = cli.get_string("cache-dir");

  // Fault tolerance: N retries = N + 1 attempts; the CLI default budget is
  // fully tolerant (a long campaign should survive a sick cell), while
  // library callers keep the strict zero-budget default.
  options.retry.max_attempts =
      static_cast<std::size_t>(cli.get_uint("retries")) + 1;
  options.failure_budget_pct = cli.get_double("failure-budget");
  GT_REQUIRE(options.failure_budget_pct >= 0.0 &&
                 options.failure_budget_pct <= 100.0,
             "--failure-budget must be in [0, 100]");
  options.unit_deadline_seconds = cli.get_double("unit-deadline");
  GT_REQUIRE(std::isfinite(options.unit_deadline_seconds) &&
                 options.unit_deadline_seconds >= 0.0,
             "--unit-deadline must be a finite number >= 0 (0 = off)");
  options.unit_sleep_ms = cli.get_uint("unit-sleep-ms");
  options.journal_path = cli.get_string("journal");
  options.resume_journal = cli.get_string("resume");
  if (!options.resume_journal.empty() && options.journal_path.empty()) {
    // Resuming naturally continues checkpointing into the same journal.
    options.journal_path = options.resume_journal;
  }
  GT_REQUIRE(resolved.size() == 1 || (options.journal_path.empty() &&
                                      options.resume_journal.empty()),
             "--journal/--resume track one spec; run suites without them");

  install_signal_handlers();
  options.cancel = &g_interrupted;

  const std::int64_t workers = cli.get_int("workers");
  GT_REQUIRE(workers >= 0, "--workers must be >= 0");
  if (workers > 0) return cmd_run_supervised(resolved, options, cli);

  const std::string out_path = cli.get_string("out");
  const bool out_is_dir = resolved.size() > 1 && !out_path.empty();
  if (out_is_dir) std::filesystem::create_directories(out_path);

  obs::MetricsExportScope metrics(cli);
  double total_wall = 0.0;
  int exit_code = 0;
  for (const std::string& name : resolved) {
    const lab::SweepSpec* spec = lab::find_spec(name);
    GT_REQUIRE(spec != nullptr, "unknown spec: " + name);
    const lab::SweepRun run = lab::run_sweep(*spec, options);
    total_wall += run.wall_seconds;

    const TextTable table = lab::sweep_table(*spec, run.manifest);
    std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
    for (const std::string& line : lab::paired_summaries(run.manifest)) {
      std::cout << "  " << line << "\n";
    }
    std::cout << "  expected: " << spec->expected << "\n"
              << "  " << run.cells << " cells, " << run.units_run
              << " units run, " << run.cache_hits << " cache hits, "
              << format_grouped(run.wall_seconds, 2) << " s wall\n";
    if (run.manifest.outcome != lab::RunOutcome::kComplete ||
        run.units_failed > 0 || run.units_retried > 0 ||
        run.cells_resumed > 0) {
      std::cout << "  outcome: " << lab::to_string(run.manifest.outcome)
                << " (" << run.units_failed << " units failed, "
                << run.units_retried << " retries, " << run.cells_failed
                << " cells failed, " << run.cells_skipped
                << " cells skipped, " << run.cells_resumed
                << " cells resumed)\n";
      for (const lab::ManifestCell& cell : run.manifest.cells) {
        for (const lab::UnitFailure& failure : cell.failures) {
          std::cout << "    cell " << cell.index << " rep " << failure.rep
                    << " [" << to_string(failure.error_class) << " after "
                    << failure.attempts << " attempt(s)]: "
                    << failure.message << "\n";
        }
      }
    }
    std::cout << "\n";

    if (!out_path.empty()) {
      const std::string path =
          out_is_dir ? out_path + "/" + name + ".json" : out_path;
      atomic_write_file(path, lab::to_json(run.manifest));
      std::cout << "  manifest: " << path << "\n\n";
    }

    switch (run.manifest.outcome) {
      case lab::RunOutcome::kComplete:
        break;
      case lab::RunOutcome::kPartial:
        exit_code = std::max(exit_code, kExitPartial);
        break;
      case lab::RunOutcome::kInterrupted:
        exit_code = kExitInterrupted;
        break;
    }
    if (exit_code == kExitInterrupted) break;  // don't start the next spec
  }
  if (resolved.size() > 1) {
    std::cout << "total: " << format_grouped(total_wall, 2) << " s wall over "
              << resolved.size() << " specs\n";
  }
  return exit_code;
}

int cmd_compare(const std::vector<std::string>& paths, const CliParser& cli) {
  GT_REQUIRE(paths.size() == 2,
             "usage: gridtrust_lab compare <manifest> <baseline> "
             "[--tolerance PCT]");
  const lab::Manifest candidate = lab::parse_manifest(read_file(paths[0]));
  const lab::Manifest baseline = lab::parse_manifest(read_file(paths[1]));
  lab::CompareOptions options;
  options.tolerance_pct = cli.get_double("tolerance");
  const lab::CompareResult result =
      lab::compare_manifests(candidate, baseline, options);
  if (result.pass) {
    std::cout << "PASS: " << result.metrics_checked
              << " metric gates within " << result.tolerance_pct
              << "% of baseline (" << paths[1] << ")\n";
    return 0;
  }
  std::cout << "FAIL: " << result.violations.size() << " violation(s) at "
            << result.tolerance_pct << "% tolerance\n";
  for (const lab::Violation& v : result.violations) {
    std::cout << "  " << v.where << ": " << v.what << "\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand syntax: positionals (command, spec names, paths) come first;
  // everything from the first `--` token on is parsed by CliParser.
  std::vector<std::string> positionals;
  int flag_start = argc;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      flag_start = i;
      break;
    }
    positionals.push_back(arg);
  }

  CliParser cli("gridtrust_lab",
                "Runs, records, and gates the registered experiment sweeps "
                "(commands: list, run <spec|suite>..., compare <manifest> "
                "<baseline>)");
  cli.add_uint("jobs", 0,
               "worker threads for run (0 = shared hardware-sized pool, "
               "1 = serial)");
  cli.add_uint("seed", 20020815, "master seed override for run");
  cli.add_uint("replications", 0, "replication-count override for run");
  cli.add_string("out", "", "manifest output path (directory for suites)");
  cli.add_string("cache-dir", "", "result-cache directory (empty = off)");
  cli.add_double("tolerance", -1.0,
                 "compare gate in percent (negative = baseline's own)");
  cli.add_flag("csv", "emit CSV instead of ASCII tables");
  cli.add_uint("retries", 0,
               "retries per failed (cell, replication) unit; retried units "
               "re-run with their original seed");
  cli.add_double("failure-budget", 100.0,
                 "percent of units allowed to fail before the run aborts "
                 "(0 = strict: rethrow the first failure)");
  cli.add_string("journal", "",
                 "checkpoint journal: completed cells are flushed here "
                 "crash-safely as they finish");
  cli.add_string("resume", "",
                 "resume from a checkpoint journal (reruns only unfinished "
                 "cells; bit-identical to an uninterrupted run)");
  cli.add_double("unit-deadline", 0.0,
                 "per-unit wall-clock deadline in seconds; overrunning "
                 "units are recorded as timeout failures (0 = off)");
  cli.add_uint("unit-sleep-ms", 0,
               "test aid: artificial per-unit latency in milliseconds "
               "(never changes results)");
  cli.add_int("workers", 0,
              "worker *processes* for run (0 = off): shards cells across "
              "forked workers with crash-tolerant supervision; the merged "
              "manifest is byte-identical to --jobs 1");
  cli.add_string("shard-dir", "",
                 "per-shard journal directory for --workers (default "
                 "<spec>.shards)");
  cli.add_double("heartbeat-timeout", 5.0,
                 "seconds of worker silence before the supervisor declares "
                 "it hung and SIGKILLs it");
  cli.add_int("worker-respawns", 3,
              "respawn attempts per worker slot before its remaining cells "
              "are surrendered as failures");
  cli.add_int("kill-worker", -1,
              "chaos: worker index that kills itself mid-shard (-1 = off; "
              "exercises the supervisor's recovery path)");
  cli.add_int("kill-after-cells", 1,
              "chaos: completed cells before --kill-worker's suicide");
  obs::add_metrics_flags(cli);

  try {
    std::vector<const char*> flag_argv;
    flag_argv.push_back(argv[0]);
    for (int i = flag_start; i < argc; ++i) flag_argv.push_back(argv[i]);
    cli.parse(static_cast<int>(flag_argv.size()), flag_argv.data());

    if (positionals.empty()) {
      std::cout << cli.usage();
      return 2;
    }
    const std::string command = positionals.front();
    const std::vector<std::string> rest(positionals.begin() + 1,
                                        positionals.end());
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(rest, cli);
    if (command == "compare") return cmd_compare(rest, cli);
    std::cerr << "unknown command: " << command << "\n" << cli.usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "gridtrust_lab: " << e.what() << "\n";
    return 2;
  }
}
