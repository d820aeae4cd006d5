// Crash-tolerant shard supervisor: the subprocess primitives (frames,
// classified exits, poll multiplexing) and the supervisor itself —
// byte-identical merges across worker counts, SIGKILL recovery via shard
// journals, heartbeat-timeout and nonzero-exit triage, and the
// deterministic shard-merge precedence rules.
//
// Deliberately ThreadPool-free: these tests fork, and forking a process
// that owns sanitizer-instrumented threads is undefined under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/faults.hpp"
#include "common/error.hpp"
#include "common/retry.hpp"
#include "common/subprocess.hpp"
#include "lab/engine.hpp"
#include "lab/journal.hpp"
#include "lab/manifest.hpp"
#include "lab/spec.hpp"
#include "lab/supervisor.hpp"
#include "obs/report.hpp"

namespace gridtrust::lab {
namespace {

/// Same synthetic sweep shape as test_lab's: 6 cells x 4 reps, results a
/// pure function of (cell, rep_seed), no simulator.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.title = "synthetic supervisor sweep";
  spec.axes = {{"alpha", {1, 2, 3}}, {"mode", {"fast", "slow"}}};
  spec.replications = 4;
  spec.seed = 99;
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    obs::RunReport report;
    report.set("value", cell.number("alpha") * 10.0 +
                            static_cast<double>(rep_seed % 1000) / 1000.0);
    report.set("mode_len", static_cast<double>(cell.text("mode").size()));
    return report;
  };
  spec.finalize = [](const Cell& cell, AggregateSet& aggregate) {
    aggregate.set_derived("alpha_echo", cell.number("alpha"));
  };
  return spec;
}

std::string temp_dir(const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("gridtrust_sup_" + leaf);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Drains a child's channel until EOF, collecting every frame.
std::vector<std::string> drain_until_eof(ChildProcess& child) {
  FrameReader reader(child.channel_fd());
  std::vector<std::string> frames;
  while (true) {
    const std::vector<std::size_t> ready =
        wait_readable({child.channel_fd()}, 1000);
    if (!reader.drain(frames)) break;
    (void)ready;
  }
  return frames;
}

// ---------------------------------------------------------------------------
// Subprocess primitives
// ---------------------------------------------------------------------------

TEST(SubprocessTest, FramesRoundTripAcrossTheProcessBoundary) {
  ChildProcess child = ChildProcess::spawn([](const FrameWriter& writer) {
    writer.send("hello");
    writer.send("");  // zero-length payloads are legal frames
    writer.send(std::string(100000, 'x') + std::string("\n\0tail", 6));
    return 0;
  });
  const std::vector<std::string> frames = drain_until_eof(child);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "hello");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(frames[2].size(), 100000u + 6u);
  EXPECT_EQ(frames[2].substr(100000), std::string("\n\0tail", 6));
  const ExitStatus exit = child.wait_exit();
  EXPECT_FALSE(exit.signaled);
  EXPECT_EQ(exit.code, 0);
}

TEST(SubprocessTest, ExitCodesRoundTripThroughTheErrorTaxonomy) {
  for (const ErrorClass cls :
       {ErrorClass::kPrecondition, ErrorClass::kInvariant,
        ErrorClass::kResource, ErrorClass::kTimeout, ErrorClass::kUnknown}) {
    ExitStatus status;
    status.signaled = false;
    status.code = exit_code_for(cls);
    EXPECT_EQ(classify_exit(status), cls) << to_string(cls);
  }
  // A signal death is always a transient resource loss (the work itself
  // is blameless), and an unclassified nonzero exit is unknown.
  ExitStatus killed;
  killed.signaled = true;
  killed.code = SIGKILL;
  EXPECT_EQ(classify_exit(killed), ErrorClass::kResource);
  ExitStatus plain;
  plain.signaled = false;
  plain.code = 1;
  EXPECT_EQ(classify_exit(plain), ErrorClass::kUnknown);
}

TEST(SubprocessTest, ThrownChildErrorsBecomeClassifiedExits) {
  ChildProcess child = ChildProcess::spawn([](const FrameWriter&) -> int {
    GT_REQUIRE(false, "scripted precondition failure");
    return 0;
  });
  const ExitStatus exit = child.wait_exit();
  EXPECT_FALSE(exit.signaled);
  EXPECT_EQ(exit.code, exit_code_for(ErrorClass::kPrecondition));
  EXPECT_EQ(classify_exit(exit), ErrorClass::kPrecondition);
  EXPECT_FALSE(is_transient(classify_exit(exit)));
}

TEST(SubprocessTest, KilledChildReportsTheSignalAndClassifiesTransient) {
  ChildProcess child = ChildProcess::spawn([](const FrameWriter& writer) {
    writer.send("alive");
    std::this_thread::sleep_for(std::chrono::seconds(60));
    return 0;
  });
  // Wait for the sign of life so the kill races nothing.
  FrameReader reader(child.channel_fd());
  std::vector<std::string> frames;
  while (frames.empty()) {
    (void)wait_readable({child.channel_fd()}, 1000);
    ASSERT_TRUE(reader.drain(frames)) << "child died before signaling";
  }
  child.send_signal(SIGKILL);
  const ExitStatus exit = child.wait_exit();
  EXPECT_TRUE(exit.signaled);
  EXPECT_EQ(exit.code, SIGKILL);
  EXPECT_EQ(classify_exit(exit), ErrorClass::kResource);
  EXPECT_NE(exit.describe().find("signal 9"), std::string::npos);
}

TEST(SubprocessTest, WaitReadableHonorsTimeoutWithNothingToWatch) {
  const double t0 = monotonic_seconds();
  const std::vector<std::size_t> ready = wait_readable({-1, -1}, 50);
  EXPECT_TRUE(ready.empty());
  EXPECT_GE(monotonic_seconds() - t0, 0.04);
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

TEST(SupervisorTest, RejectsInvalidOptions) {
  const SweepSpec spec = tiny_spec();
  const EngineOptions engine;
  SupervisorOptions bad;
  bad.workers = 0;
  bad.shard_dir = temp_dir("reject");
  EXPECT_THROW(run_supervised(spec, engine, bad), PreconditionError);

  SupervisorOptions no_dir;
  no_dir.workers = 2;
  EXPECT_THROW(run_supervised(spec, engine, no_dir), PreconditionError);

  SupervisorOptions plan_out_of_range;
  plan_out_of_range.workers = 2;
  plan_out_of_range.shard_dir = temp_dir("reject2");
  chaos::WorkerFaultPlan plan;
  plan.worker = 5;
  plan_out_of_range.fault_plans.push_back(plan);
  EXPECT_THROW(run_supervised(spec, engine, plan_out_of_range),
               PreconditionError);

  EngineOptions journaled;
  journaled.journal_path = temp_dir("reject3") + "/j.journal";
  SupervisorOptions ok;
  ok.workers = 2;
  ok.shard_dir = temp_dir("reject4");
  EXPECT_THROW(run_supervised(spec, journaled, ok), PreconditionError);
}

TEST(SupervisorTest, FaultPlanValidationRejectsZeroFields) {
  chaos::WorkerFaultPlan plan;
  chaos::validate_plan(plan);  // defaults are valid
  plan.after_cells = 0;
  EXPECT_THROW(chaos::validate_plan(plan), PreconditionError);
  plan.after_cells = 1;
  plan.signal = 0;
  EXPECT_THROW(chaos::validate_plan(plan), PreconditionError);
  plan.signal = 9;
  plan.incarnations = 0;
  EXPECT_THROW(chaos::validate_plan(plan), PreconditionError);
}

TEST(SupervisorTest, SupervisedRunIsByteIdenticalToSingleProcess) {
  const SweepSpec spec = tiny_spec();
  EngineOptions serial;
  serial.jobs = 1;
  const std::string reference = to_json(run_sweep(spec, serial).manifest);

  SupervisorOptions sup;
  sup.workers = 3;
  sup.shard_dir = temp_dir("identical");
  const SupervisorRun run = run_supervised(spec, EngineOptions{}, sup);
  EXPECT_EQ(to_json(run.manifest), reference);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kComplete);
  EXPECT_EQ(run.cells, 6u);
  EXPECT_EQ(run.cells_failed, 0u);
  EXPECT_EQ(run.counters.workers_spawned, 3u);
  EXPECT_EQ(run.counters.workers_lost, 0u);
  EXPECT_EQ(run.counters.workers_respawned, 0u);
  EXPECT_EQ(run.counters.cells_reassigned, 0u);
}

TEST(SupervisorTest, SigkilledWorkerResumesFromItsShardJournalByteIdentical) {
  const SweepSpec spec = tiny_spec();
  EngineOptions serial;
  serial.jobs = 1;
  const std::string reference = to_json(run_sweep(spec, serial).manifest);

  // Worker 0 (shard {0, 3}) kills itself with SIGKILL right after its
  // first cell is journaled; the replacement must resume from the shard
  // journal and recompute only cell 3.
  SupervisorOptions sup;
  sup.workers = 3;
  sup.shard_dir = temp_dir("sigkill");
  sup.respawn_backoff.backoff_initial_ms = 1;
  chaos::WorkerFaultPlan plan;
  plan.worker = 0;
  plan.after_cells = 1;
  plan.signal = SIGKILL;
  plan.incarnations = 1;
  sup.fault_plans.push_back(plan);

  const SupervisorRun run = run_supervised(spec, EngineOptions{}, sup);
  EXPECT_EQ(to_json(run.manifest), reference);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kComplete);
  EXPECT_EQ(run.counters.workers_spawned, 4u);
  EXPECT_EQ(run.counters.workers_lost, 1u);
  EXPECT_EQ(run.counters.workers_respawned, 1u);
  // One cell of the shard was journaled before the kill, so exactly the
  // other one is handed to the replacement.
  EXPECT_EQ(run.counters.cells_reassigned, 1u);
}

TEST(SupervisorTest, HeartbeatTimeoutTriagesAHungWorker) {
  // Cell 5 (alpha=3 mode=slow, owned by worker 2) hangs forever; every
  // other cell is instant.  With respawns disabled the supervisor must
  // SIGKILL the silent worker and surrender cell 5 as a timeout failure.
  SweepSpec spec = tiny_spec();
  spec.run = [](const Cell& cell, std::uint64_t rep_seed) {
    if (cell.number("alpha") == 3 && cell.text("mode") == "slow") {
      std::this_thread::sleep_for(std::chrono::seconds(30));
    }
    obs::RunReport report;
    report.set("value", cell.number("alpha") * 10.0 +
                            static_cast<double>(rep_seed % 1000) / 1000.0);
    report.set("mode_len", static_cast<double>(cell.text("mode").size()));
    return report;
  };

  EngineOptions engine;
  engine.failure_budget_pct = 100.0;
  SupervisorOptions sup;
  sup.workers = 3;
  sup.shard_dir = temp_dir("heartbeat");
  sup.heartbeat_interval_s = 0.01;
  sup.heartbeat_timeout_s = 1.0;
  sup.max_respawns = 0;

  const SupervisorRun run = run_supervised(spec, engine, sup);
  EXPECT_GE(run.counters.heartbeats_missed, 1u);
  EXPECT_EQ(run.counters.workers_lost, 1u);
  EXPECT_EQ(run.counters.workers_respawned, 0u);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kPartial);
  EXPECT_EQ(run.cells_failed, 1u);
  ASSERT_EQ(run.manifest.cells.size(), 6u);
  const ManifestCell& hung = run.manifest.cells[5];
  EXPECT_EQ(hung.status, CellStatus::kFailed);
  ASSERT_EQ(hung.failures.size(), 1u);
  EXPECT_EQ(hung.failures[0].error_class, ErrorClass::kTimeout);
  EXPECT_NE(hung.failures[0].message.find("no heartbeat"), std::string::npos);
  // The hung worker's *other* cell completed and journaled before the hang.
  EXPECT_EQ(run.manifest.cells[2].status, CellStatus::kOk);
}

TEST(SupervisorTest, NonzeroExitTriagesDeterministicallyWithoutRespawn) {
  // A corrupt shard journal makes worker 0's resume throw a
  // PreconditionError, which travels back as classified exit code
  // 64 + precondition.  Deterministic class: no respawn is attempted even
  // though the budget would allow three.
  const SweepSpec spec = tiny_spec();
  const std::string shard_dir = temp_dir("nonzero");
  std::filesystem::create_directories(shard_dir);
  {
    std::ofstream out(shard_dir + "/shard-0.journal");
    out << "this is not a journal header\n";
  }

  EngineOptions engine;
  engine.failure_budget_pct = 50.0;
  SupervisorOptions sup;
  sup.workers = 3;
  sup.shard_dir = shard_dir;
  sup.max_respawns = 3;

  const SupervisorRun run = run_supervised(spec, engine, sup);
  EXPECT_EQ(run.counters.workers_spawned, 3u);
  EXPECT_EQ(run.counters.workers_lost, 1u);
  EXPECT_EQ(run.counters.workers_respawned, 0u);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kPartial);
  EXPECT_EQ(run.cells_failed, 2u);  // worker 0's shard: cells 0 and 3
  for (const std::size_t index : {std::size_t{0}, std::size_t{3}}) {
    const ManifestCell& cell = run.manifest.cells[index];
    EXPECT_EQ(cell.status, CellStatus::kFailed);
    ASSERT_EQ(cell.failures.size(), 1u);
    EXPECT_EQ(cell.failures[0].error_class, ErrorClass::kPrecondition);
    EXPECT_EQ(cell.failures[0].attempts, 1u);
    EXPECT_NE(cell.failures[0].message.find("worker 0 died"),
              std::string::npos);
    EXPECT_NE(cell.failures[0].message.find("exit 64"), std::string::npos);
  }
  // The healthy shards were unaffected.
  EXPECT_EQ(run.manifest.cells[1].status, CellStatus::kOk);
  EXPECT_EQ(run.manifest.cells[2].status, CellStatus::kOk);
}

TEST(SupervisorTest, ExceededFailureBudgetThrowsAfterSalvagingTheMerge) {
  const SweepSpec spec = tiny_spec();
  const std::string shard_dir = temp_dir("budget");
  std::filesystem::create_directories(shard_dir);
  {
    std::ofstream out(shard_dir + "/shard-0.journal");
    out << "garbage\n";
  }
  SupervisorOptions sup;
  sup.workers = 3;
  sup.shard_dir = shard_dir;
  sup.max_respawns = 0;
  try {
    (void)run_supervised(spec, EngineOptions{}, sup);  // default budget: 0%
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("over failure budget"),
              std::string::npos);
  }
}

TEST(SupervisorTest, CancelledRunInterruptsAndSkipsRemainingCells) {
  const SweepSpec spec = tiny_spec();
  EngineOptions engine;
  engine.unit_sleep_ms = 50;  // 200 ms per cell: cancel lands mid-shard
  std::atomic<bool> cancel{true};
  SupervisorOptions sup;
  sup.workers = 2;
  sup.shard_dir = temp_dir("cancel");
  sup.cancel = &cancel;

  const SupervisorRun run = run_supervised(spec, engine, sup);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kInterrupted);
  EXPECT_EQ(run.counters.workers_lost, 0u);
  bool any_skipped = false;
  for (const ManifestCell& cell : run.manifest.cells) {
    EXPECT_NE(cell.status, CellStatus::kFailed);
    any_skipped = any_skipped || cell.status == CellStatus::kSkipped;
  }
  EXPECT_TRUE(any_skipped);
}

TEST(SupervisorTest, MergePrefersOkRecordsAndLastInputWins) {
  const SweepSpec spec = tiny_spec();
  EngineOptions serial;
  serial.jobs = 1;
  const Manifest reference = run_sweep(spec, serial).manifest;

  const auto header = [&] {
    Journal journal;
    journal.spec = reference.spec;
    journal.spec_hash = reference.spec_hash;
    journal.seed = reference.seed;
    journal.replications = reference.replications;
    return journal;
  };
  ManifestCell ok0 = reference.cells[0];
  ManifestCell ok0_newer = ok0;
  ok0_newer.metrics[0].second.mean += 1.0;
  ManifestCell failed0 = ok0;
  failed0.status = CellStatus::kFailed;
  UnitFailure failure;
  failure.rep = 0;
  failure.seed = reference.seed;
  failure.error_class = ErrorClass::kUnknown;
  failure.message = "stale incarnation";
  failed0.failures.push_back(failure);

  // Two shards journaled the same cell hash (a reassigned cell computed by
  // both the dead incarnation and its replacement): the later journal wins,
  // and a stale failed record can never demote the ok one.
  Journal first = header();
  first.cells = {failed0, ok0};
  Journal second = header();
  second.cells = {ok0_newer};
  const ShardMerge merge = merge_shards(spec, reference.seed,
                                        reference.replications,
                                        {first, second}, {failed0});
  EXPECT_EQ(merge.manifest.cells[0].status, CellStatus::kOk);
  EXPECT_EQ(merge.manifest.cells[0].metrics[0].second.mean,
            ok0_newer.metrics[0].second.mean);
  EXPECT_TRUE(merge.manifest.cells[0].failures.empty());
  // Every other grid cell is missing and marked skipped with identity.
  EXPECT_EQ(merge.missing.size(), 5u);
  EXPECT_EQ(merge.manifest.cells[3].status, CellStatus::kSkipped);
  EXPECT_EQ(merge.manifest.cells[3].param_hash, reference.cells[3].param_hash);
}

TEST(SupervisorTest, MergeDropsForeignJournalsAndForeignCells) {
  const SweepSpec spec = tiny_spec();
  EngineOptions serial;
  serial.jobs = 1;
  const Manifest reference = run_sweep(spec, serial).manifest;

  Journal foreign;
  foreign.spec = "someone-else";
  foreign.spec_hash = "deadbeefdeadbeef";
  foreign.seed = reference.seed;
  foreign.replications = reference.replications;
  foreign.cells = {reference.cells[1]};

  // A streamed record whose param_hash does not match its claimed index
  // (e.g. a journal replayed against an edited grid) must be dropped.
  ManifestCell mismatched = reference.cells[0];
  mismatched.index = 2;

  const ShardMerge merge =
      merge_shards(spec, reference.seed, reference.replications, {foreign},
                   {mismatched});
  EXPECT_EQ(merge.missing.size(), 6u);
  for (const ManifestCell& cell : merge.manifest.cells) {
    EXPECT_EQ(cell.status, CellStatus::kSkipped);
  }
}

}  // namespace
}  // namespace gridtrust::lab
