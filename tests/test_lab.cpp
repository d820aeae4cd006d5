// Lab sweep engine: grid expansion, seed derivation, parallel determinism,
// fault containment and retry, checkpoint/resume, the result cache,
// manifest round-trips, baseline comparison gates, the table renderers, and
// the byte-identity of the committed baseline manifests.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <system_error>
#include <thread>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/log.hpp"
#include "lab/cache.hpp"
#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/journal.hpp"
#include "lab/manifest.hpp"
#include "lab/render.hpp"
#include "lab/spec.hpp"
#include "obs/json_in.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::lab {
namespace {

/// A tiny synthetic sweep (no simulator) whose results are a pure function
/// of (cell, rep_seed) — fast enough to run hundreds of times in tests.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.title = "synthetic test sweep";
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
      std::filesystem::temp_directory_path() / ("gridtrust_lab_" + leaf);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// "name=value name=value" in axis order.
std::string label(const Cell& cell) {
  std::string out;
  for (const auto& [key, value] : cell.params) {
    if (!out.empty()) out += ' ';
    out += key + '=' + value.canonical();
  }
  return out;
}

TEST(SweepSpecTest, ExpandsCellsRowMajorWithLastAxisFastest) {
  const std::vector<Cell> cells = tiny_spec().cells();
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(label(cells[0]), "alpha=1 mode=fast");
  EXPECT_EQ(label(cells[1]), "alpha=1 mode=slow");
  EXPECT_EQ(label(cells[2]), "alpha=2 mode=fast");
  EXPECT_EQ(label(cells[5]), "alpha=3 mode=slow");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(SweepSpecTest, ContentHashTracksEveryDeclaredField) {
  const SweepSpec base = tiny_spec();
  SweepSpec edited = base;
  EXPECT_EQ(base.content_hash(), edited.content_hash());
  edited.version = "2";
  EXPECT_NE(base.content_hash(), edited.content_hash());
  edited = base;
  edited.seed = 100;
  EXPECT_NE(base.content_hash(), edited.content_hash());
  edited = base;
  edited.axes[0].values.push_back(4);
  EXPECT_NE(base.content_hash(), edited.content_hash());
  edited = base;
  edited.replications = 5;
  EXPECT_NE(base.content_hash(), edited.content_hash());
  // Presentation fields do not participate.
  edited = base;
  edited.title = "different title";
  edited.display_metrics = {"value"};
  EXPECT_EQ(base.content_hash(), edited.content_hash());
}

TEST(SweepSpecTest, RepSeedsAreDistinctAcrossCellsAndReps) {
  const std::vector<Cell> cells = tiny_spec().cells();
  std::set<std::uint64_t> seeds;
  for (const Cell& cell : cells) {
    const std::uint64_t hash = cell_param_hash(cell);
    for (std::size_t rep = 0; rep < 64; ++rep) {
      seeds.insert(derive_rep_seed(99, hash, rep));
    }
  }
  EXPECT_EQ(seeds.size(), cells.size() * 64);
  // Pure function: recomputing gives the same stream.
  EXPECT_EQ(derive_rep_seed(99, cell_param_hash(cells[0]), 3),
            derive_rep_seed(99, cell_param_hash(cells[0]), 3));
}

TEST(EngineTest, ParallelRunsAreBitIdenticalToSerial) {
  const SweepSpec spec = tiny_spec();
  EngineOptions serial;
  serial.jobs = 1;
  EngineOptions parallel;
  parallel.jobs = 4;
  const std::string a = to_json(run_sweep(spec, serial).manifest);
  const std::string b = to_json(run_sweep(spec, parallel).manifest);
  EXPECT_EQ(a, b);
  EngineOptions shared;
  shared.jobs = 0;  // process-wide pool
  EXPECT_EQ(a, to_json(run_sweep(spec, shared).manifest));
}

TEST(EngineTest, AggregatesMeanAndDerivedMetricsPerCell) {
  const SweepRun run = run_sweep(tiny_spec());
  ASSERT_EQ(run.manifest.cells.size(), 6u);
  EXPECT_EQ(run.units_run, 6u * 4u);
  for (const ManifestCell& cell : run.manifest.cells) {
    ASSERT_EQ(cell.metrics.size(), 3u);
    EXPECT_EQ(cell.metrics[0].first, "value");
    EXPECT_EQ(cell.metrics[0].second.n, 4u);
    EXPECT_EQ(cell.metrics[2].first, "alpha_echo");
    EXPECT_EQ(cell.metrics[2].second.n, 0u);  // derived
    // alpha_echo equals the cell's alpha parameter.
    EXPECT_EQ(cell.metrics[2].second.mean, cell.params[0].second.number());
  }
}

TEST(EngineTest, SeedAndReplicationOverridesChangeTheSpecHash) {
  const SweepSpec spec = tiny_spec();
  EngineOptions options;
  const Manifest base = run_sweep(spec, options).manifest;
  options.seed = 7;
  options.replications = 2;
  const Manifest overridden = run_sweep(spec, options).manifest;
  EXPECT_NE(base.spec_hash, overridden.spec_hash);
  EXPECT_EQ(overridden.seed, 7u);
  EXPECT_EQ(overridden.replications, 2u);
  EXPECT_EQ(overridden.cells[0].replications, 2u);
}

TEST(CacheTest, SecondRunHitsAndMatchesByteForByte) {
  const SweepSpec spec = tiny_spec();
  EngineOptions options;
  options.cache_dir = temp_dir("hit");
  const SweepRun first = run_sweep(spec, options);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.units_run, 24u);
  const SweepRun second = run_sweep(spec, options);
  EXPECT_EQ(second.cache_hits, 6u);
  EXPECT_EQ(second.units_run, 0u);
  EXPECT_EQ(to_json(first.manifest), to_json(second.manifest));
}

TEST(CacheTest, SpecEditsInvalidateTheCache) {
  SweepSpec spec = tiny_spec();
  EngineOptions options;
  options.cache_dir = temp_dir("invalidate");
  (void)run_sweep(spec, options);

  // A version bump misses every cell.
  spec.version = "2";
  EXPECT_EQ(run_sweep(spec, options).cache_hits, 0u);

  // A seed override misses too (the key folds the effective seed).
  spec = tiny_spec();
  EngineOptions reseeded = options;
  reseeded.seed = 1234;
  EXPECT_EQ(run_sweep(spec, reseeded).cache_hits, 0u);

  // Adding an axis value re-runs only the new cells.
  spec = tiny_spec();
  spec.axes[0].values.push_back(4);
  const SweepRun grown = run_sweep(spec, options);
  EXPECT_EQ(grown.cache_hits, 6u);
  EXPECT_EQ(grown.units_run, 2u * 4u);  // the two new alpha=4 cells
}

TEST(CacheTest, CorruptEntryIsAMiss) {
  const SweepSpec spec = tiny_spec();
  EngineOptions options;
  options.cache_dir = temp_dir("corrupt");
  (void)run_sweep(spec, options);
  for (const auto& entry :
       std::filesystem::directory_iterator(options.cache_dir)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{not json", f);
    std::fclose(f);
  }
  const SweepRun rerun = run_sweep(spec, options);
  EXPECT_EQ(rerun.cache_hits, 0u);
  EXPECT_EQ(rerun.units_run, 24u);
}

TEST(ManifestTest, RoundTripsThroughJsonByteForByte) {
  const Manifest manifest = run_sweep(tiny_spec()).manifest;
  const std::string json = to_json(manifest);
  const Manifest parsed = parse_manifest(json);
  EXPECT_EQ(parsed.spec, "tiny");
  EXPECT_EQ(parsed.seed, 99u);
  EXPECT_EQ(parsed.cells.size(), 6u);
  EXPECT_EQ(parsed.cells[3].params[1].second.text(), "slow");
  EXPECT_EQ(to_json(parsed), json);  // byte-stable round trip
}

TEST(ManifestTest, ParseRejectsWrongSchemaAndGarbage) {
  EXPECT_THROW((void)parse_manifest("{\"schema\":\"other/v9\",\"cells\":[]}"),
               PreconditionError);
  EXPECT_THROW((void)parse_manifest("not json at all"), PreconditionError);
}

/// Values no count may take: negative, fractional, 2^64 and above, and the
/// infinity that 1e400 parses to.
const std::vector<std::string>& invalid_counts() {
  static const std::vector<std::string> values = {
      "-1", "-3", "2.5", "1e30", "1e300", "1e400", "18446744073709551616"};
  return values;
}

TEST(ManifestTest, CountsMustBeNonNegativeIntegersBelow2To64) {
  const std::string json = to_json(run_sweep(tiny_spec()).manifest);
  // `json` with the first value of `field` replaced (header seed and
  // replications come before any cell; index is the first cell's).
  const auto with = [&](const std::string& field, const std::string& value) {
    const std::string key = "\"" + field + "\":";
    const std::size_t at = json.find(key) + key.size();
    std::string out = json;
    out.replace(at, json.find_first_of(",}", at) - at, value);
    return out;
  };
  // The largest double below 2^64 is still a valid seed.
  EXPECT_EQ(parse_manifest(with("seed", "18446744073709549568")).seed,
            18446744073709549568u);
  for (const std::string& value : invalid_counts()) {
    EXPECT_THROW((void)parse_manifest(with("seed", value)), PreconditionError)
        << value;
    EXPECT_THROW((void)parse_manifest(with("replications", value)),
                 PreconditionError)
        << value;
    EXPECT_THROW((void)parse_manifest(with("index", value)),
                 PreconditionError)
        << value;
  }
}

TEST(ManifestTest, EverySeedRoundTripsExactlyThroughManifestAndJournal) {
  // 2^53 + 1 is the first seed a double cannot hold; 2^64 - 1 is the
  // largest.  Both must be recorded digit for digit, so a rerun from the
  // recorded seed reproduces the manifest (spec_hash folds the seed).
  for (const std::uint64_t seed :
       {std::uint64_t{9007199254740993u}, ~std::uint64_t{0}}) {
    const std::string dir =
        temp_dir("exact_seed_" + std::to_string(seed % 1000));
    std::filesystem::create_directories(dir);
    EngineOptions options;
    options.jobs = 1;
    options.seed = seed;
    options.journal_path = dir + "/sweep.journal";
    const Manifest manifest = run_sweep(tiny_spec(), options).manifest;
    ASSERT_EQ(manifest.seed, seed);

    const std::string json = to_json(manifest);
    EXPECT_NE(json.find("\"seed\":" + std::to_string(seed) + ","),
              std::string::npos);
    const Manifest parsed = parse_manifest(json);
    EXPECT_EQ(parsed.seed, seed);
    EXPECT_EQ(to_json(parsed), json);

    const std::optional<Journal> journal = load_journal(options.journal_path);
    ASSERT_TRUE(journal.has_value());
    EXPECT_EQ(journal->seed, seed);
    EXPECT_EQ(parse_journal(journal_to_jsonl(*journal)).seed, seed);

    EngineOptions rerun;
    rerun.jobs = 1;
    rerun.seed = parsed.seed;
    EXPECT_EQ(to_json(run_sweep(tiny_spec(), rerun).manifest), json);
    std::filesystem::remove_all(dir);
  }
}

TEST(EngineTest, RejectsAUnitCountThatOverflows) {
  // tiny_spec has 6 cells; 6 x (SIZE_MAX / 4) wraps a std::size_t.
  EngineOptions options;
  options.jobs = 1;
  options.replications = std::numeric_limits<std::size_t>::max() / 4;
  EXPECT_THROW((void)run_sweep(tiny_spec(), options), PreconditionError);
}

TEST(CompareTest, IdenticalManifestsPassAndPerturbedMeansFail) {
  const Manifest base = run_sweep(tiny_spec()).manifest;
  const CompareResult same = compare_manifests(base, base);
  EXPECT_TRUE(same.pass);
  EXPECT_GT(same.metrics_checked, 0u);

  Manifest drifted = base;
  drifted.cells[2].metrics[0].second.mean *= 1.5;  // way past 1 %
  const CompareResult fail = compare_manifests(drifted, base);
  EXPECT_FALSE(fail.pass);
  ASSERT_EQ(fail.violations.size(), 1u);
  EXPECT_NE(fail.violations[0].where.find("value"), std::string::npos);

  // A generous explicit tolerance turns the same drift into a pass.
  CompareOptions loose;
  loose.tolerance_pct = 60.0;
  EXPECT_TRUE(compare_manifests(drifted, base, loose).pass);
}

TEST(CompareTest, StructuralMismatchesAreViolations) {
  const Manifest base = run_sweep(tiny_spec()).manifest;

  Manifest wrong_spec = base;
  wrong_spec.spec = "other";
  EXPECT_FALSE(compare_manifests(wrong_spec, base).pass);

  Manifest missing_cell = base;
  missing_cell.cells.pop_back();
  EXPECT_FALSE(compare_manifests(missing_cell, base).pass);

  Manifest missing_metric = base;
  missing_metric.cells[0].metrics.erase(
      missing_metric.cells[0].metrics.begin());
  EXPECT_FALSE(compare_manifests(missing_metric, base).pass);

  // A rebuilt binary (different git_rev) that reproduces the numbers passes.
  Manifest rebuilt = base;
  rebuilt.git_rev = "deadbeef0123";
  EXPECT_TRUE(compare_manifests(rebuilt, base).pass);
}

// ------------------------------------------------------------ lab/render

/// Two cells over a text axis and a numeric axis; the second cell lacks
/// `improvement_pct` and holds a single-replication `makespan`.
Manifest render_manifest() {
  Manifest manifest;
  manifest.spec = "render";
  manifest.seed = 7;
  manifest.replications = 2;
  ManifestCell first;
  first.index = 0;
  first.params = {{"heuristic", ParamValue("mct")}, {"tasks", ParamValue(50)}};
  first.metrics = {{"makespan", {12.5, 1.25, 2}},
                   {"improvement_pct", {20.0, 0.0, 0}}};
  ManifestCell second;
  second.index = 1;
  second.params = {{"heuristic", ParamValue("min-min")},
                   {"tasks", ParamValue(100)}};
  second.metrics = {{"makespan", {30.0, 0.5, 1}}};
  manifest.cells = {first, second};
  return manifest;
}

TEST(RenderTest, SweepTableHasAxisColumnsThenDisplayMetricColumns) {
  SweepSpec spec;
  spec.title = "Render";
  spec.axes = {{"heuristic", {"mct", "min-min"}}, {"tasks", {50, 100}}};
  spec.display_metrics = {"makespan", "improvement_pct"};
  const TextTable table = sweep_table(spec, render_manifest());
  // "± ci95" only where n >= 2; "-" where the cell lacks the metric.
  EXPECT_EQ(table.to_csv(),
            "heuristic,tasks,makespan,improvement_pct\n"
            "mct,50,12.50 ± 1.25,20.00\n"
            "min-min,100,30.00,-\n");
  EXPECT_NE(table.to_string().find("Render (seed 7, n=2/cell)"),
            std::string::npos);

  // Without display metrics, every metric of the first cell is a column.
  spec.display_metrics.clear();
  EXPECT_EQ(sweep_table(spec, render_manifest()).to_csv(),
            "heuristic,tasks,makespan,improvement_pct\n"
            "mct,50,12.50 ± 1.25,20.00\n"
            "min-min,100,30.00,-\n");
}

TEST(RenderTest, PaperScheduleTableRequiresThePairedMetrics) {
  EXPECT_THROW((void)paper_schedule_table("Table X", render_manifest()),
               PreconditionError);
}

TEST(RenderTest, PairedSummariesSkipCellsWithoutAMakespanDiff) {
  Manifest manifest = render_manifest();
  manifest.cells[1].metrics = {{"unaware.makespan", {200.0, 8.0, 4}},
                               {"makespan_diff", {40.0, 10.0, 4}},
                               {"improvement_pct", {20.0, 0.0, 0}}};
  const std::vector<std::string> lines = paired_summaries(manifest);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines.front(),
            "heuristic=min-min tasks=100: improvement 20.00% (95% CI "
            "half-width 5.00%, n=4)");
}

TEST(CatalogTest, EverySpecIsRunnableAndResolvable) {
  for (const SweepSpec& spec : builtin_specs()) {
    EXPECT_NE(spec.run, nullptr) << spec.name;
    EXPECT_FALSE(spec.axes.empty()) << spec.name;
    EXPECT_FALSE(spec.paper_ref.empty()) << spec.name;
    EXPECT_EQ(find_spec(spec.name), &spec);
    EXPECT_EQ(resolve_run_names(spec.name),
              std::vector<std::string>{spec.name});
  }
  EXPECT_EQ(resolve_run_names("tables").size(), 6u);
  EXPECT_EQ(resolve_run_names("no_such_spec").size(), 0u);
}

TEST(CatalogTest, SmokeSpecMatchesItsCommittedBaselineShape) {
  const SweepSpec* smoke = find_spec("smoke");
  ASSERT_NE(smoke, nullptr);
  const SweepRun run = run_sweep(*smoke);
  EXPECT_EQ(run.manifest.cells.size(), 1u);
  // The paired metrics the baseline gates on.
  const ManifestCell& cell = run.manifest.cells.front();
  std::set<std::string> names;
  for (const auto& [name, metric] : cell.metrics) names.insert(name);
  EXPECT_TRUE(names.count("unaware.makespan"));
  EXPECT_TRUE(names.count("aware.makespan"));
  EXPECT_TRUE(names.count("improvement_pct"));
}

// Every committed baseline manifest reproduces byte for byte: the paper's
// static path (smoke, table4, and the static-instance studies) and both
// campaign kinds of the shared round loop (smoke_backends, smoke_econ).
class CommittedBaseline : public ::testing::TestWithParam<std::string> {};

TEST_P(CommittedBaseline, ManifestIsByteIdentical) {
  const SweepSpec* spec = find_spec(GetParam());
  ASSERT_NE(spec, nullptr);
  Manifest fresh = run_sweep(*spec).manifest;
  Manifest baseline = parse_manifest(read_file(
      std::string(GRIDTRUST_SOURCE_DIR) + "/baselines/" + GetParam() +
      ".json"));
  // git_rev is stamped at runtime and legitimately differs between the
  // committing revision and the test run; every other byte must match.
  fresh.git_rev = "pinned";
  baseline.git_rev = "pinned";
  EXPECT_EQ(to_json(fresh), to_json(baseline))
      << "the " << GetParam() << " manifest moved; if the change is "
      << "intentional, regenerate baselines/" << GetParam() << ".json";
}

INSTANTIATE_TEST_SUITE_P(Specs, CommittedBaseline,
                         ::testing::Values("smoke", "table4",
                                           "smoke_backends", "smoke_econ",
                                           "scale", "diversity",
                                           "ablation_surface", "all_heuristics",
                                           "ablation_interpretation",
                                           "ablation_security_policy",
                                           "theorem_check", "distributed",
                                           "staging"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

// ------------------------------------------------ fault containment / retry

/// Runner failing on a fixed (cell predicate, rep set).  Rep is recovered
/// by matching the derived seed, so the failure is a pure function of the
/// unit — bit-identical under any jobs value.
SweepSpec failing_spec(std::set<std::size_t> failing_reps,
                       double failing_alpha = 3.0) {
  SweepSpec spec = tiny_spec();
  spec.name = "tiny_failing";
  spec.run = [failing_reps, failing_alpha](const Cell& cell,
                                           std::uint64_t rep_seed) {
    for (const std::size_t rep : failing_reps) {
      if (cell.number("alpha") == failing_alpha &&
          rep_seed == derive_rep_seed(99, cell_param_hash(cell), rep)) {
        throw PreconditionError("synthetic failure in " + label(cell));
      }
    }
    obs::RunReport report;
    report.set("value", cell.number("alpha") * 10.0 +
                            static_cast<double>(rep_seed % 1000) / 1000.0);
    return report;
  };
  spec.finalize = nullptr;
  return spec;
}

TEST(ContainmentTest, DefaultStrictModeRethrowsTheRunnerError) {
  // The historical contract with the default zero failure budget.
  EXPECT_THROW((void)run_sweep(failing_spec({0})), PreconditionError);
}

TEST(ContainmentTest, BudgetedRunCompletesHealthyCellsAndRecordsFailures) {
  EngineOptions options;
  options.failure_budget_pct = 50.0;
  const SweepRun run = run_sweep(failing_spec({0}), options);

  EXPECT_EQ(run.manifest.outcome, RunOutcome::kPartial);
  EXPECT_EQ(run.units_failed, 2u);  // rep 0 of both alpha=3 cells
  EXPECT_EQ(run.cells_failed, 2u);
  ASSERT_EQ(run.manifest.cells.size(), 6u);
  for (const ManifestCell& cell : run.manifest.cells) {
    const bool failing = cell.params[0].second.number() == 3.0;
    if (!failing) {
      EXPECT_EQ(cell.status, CellStatus::kOk);
      EXPECT_TRUE(cell.failures.empty());
      ASSERT_FALSE(cell.metrics.empty());
      EXPECT_EQ(cell.metrics[0].second.n, 4u);
      continue;
    }
    EXPECT_EQ(cell.status, CellStatus::kFailed);
    ASSERT_EQ(cell.failures.size(), 1u);
    const UnitFailure& failure = cell.failures[0];
    EXPECT_EQ(failure.rep, 0u);
    EXPECT_EQ(failure.error_class, ErrorClass::kPrecondition);
    EXPECT_EQ(failure.attempts, 1u);
    EXPECT_NE(failure.message.find("synthetic failure"), std::string::npos);
    // The failure records the exact derived seed of the doomed unit.
    Cell grid_cell;
    grid_cell.params = cell.params;
    EXPECT_EQ(failure.seed, derive_rep_seed(99, cell_param_hash(grid_cell), 0));
    // Metrics aggregate the three surviving replications.
    ASSERT_FALSE(cell.metrics.empty());
    EXPECT_EQ(cell.metrics[0].second.n, 3u);
  }
}

TEST(ContainmentTest, FailedManifestsAreBitIdenticalAtAnyJobsValue) {
  EngineOptions serial;
  serial.failure_budget_pct = 50.0;
  serial.jobs = 1;
  EngineOptions parallel = serial;
  parallel.jobs = 4;
  EXPECT_EQ(to_json(run_sweep(failing_spec({0, 2}), serial).manifest),
            to_json(run_sweep(failing_spec({0, 2}), parallel).manifest));
}

TEST(ContainmentTest, ExceededBudgetRethrows) {
  EngineOptions options;
  options.failure_budget_pct = 5.0;  // 2/24 units ≈ 8.3% > 5%
  EXPECT_THROW((void)run_sweep(failing_spec({0}), options),
               PreconditionError);
}

TEST(ContainmentTest, FailedCellsAreNeverCached) {
  EngineOptions options;
  options.failure_budget_pct = 50.0;
  options.cache_dir = temp_dir("failed_cells");
  (void)run_sweep(failing_spec({0}), options);
  const SweepRun second = run_sweep(failing_spec({0}), options);
  EXPECT_EQ(second.cache_hits, 4u);      // only the healthy cells
  EXPECT_EQ(second.units_run, 2u * 4u);  // both failed cells re-run whole
  EXPECT_EQ(second.manifest.outcome, RunOutcome::kPartial);
}

TEST(RetryTest, ExhaustionRecordsAttemptsAndDowngradesToPartial) {
  EngineOptions options;
  options.failure_budget_pct = 50.0;
  options.retry.max_attempts = 3;
  options.retry.backoff_initial_ms = 0;  // deterministic class: no sleep
  const SweepRun run = run_sweep(failing_spec({1}), options);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kPartial);
  EXPECT_EQ(run.units_failed, 2u);
  // Each doomed unit consumed all three attempts → two retries apiece.
  EXPECT_EQ(run.units_retried, 4u);
  for (const ManifestCell& cell : run.manifest.cells) {
    for (const UnitFailure& failure : cell.failures) {
      EXPECT_EQ(failure.attempts, 3u);
    }
  }
}

TEST(RetryTest, TransientFailureSucceedsOnRetryWithTheSameSeed) {
  // Shared state is test-only: a "flaky" runner that fails its first two
  // calls for the alpha=1/rep=0 unit, then succeeds.
  auto flaky_remaining = std::make_shared<std::atomic<int>>(2);
  SweepSpec spec = tiny_spec();
  spec.finalize = nullptr;
  auto seen_seeds = std::make_shared<std::vector<std::uint64_t>>();
  spec.run = [flaky_remaining, seen_seeds](const Cell& cell,
                                           std::uint64_t rep_seed) {
    if (cell.number("alpha") == 1.0 && cell.text("mode") == "fast" &&
        rep_seed == derive_rep_seed(99, cell_param_hash(cell), 0)) {
      seen_seeds->push_back(rep_seed);
      if (flaky_remaining->fetch_sub(1) > 0) {
        throw std::runtime_error("transient glitch");
      }
    }
    obs::RunReport report;
    report.set("value", cell.number("alpha"));
    return report;
  };

  EngineOptions options;
  options.jobs = 1;
  options.retry.max_attempts = 3;
  options.retry.backoff_initial_ms = 1;
  const SweepRun run = run_sweep(spec, options);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kComplete);
  EXPECT_EQ(run.units_failed, 0u);
  EXPECT_EQ(run.units_retried, 2u);
  // Seed-preserving re-run: all three attempts saw the identical seed.
  ASSERT_EQ(seen_seeds->size(), 3u);
  EXPECT_EQ((*seen_seeds)[0], (*seen_seeds)[1]);
  EXPECT_EQ((*seen_seeds)[1], (*seen_seeds)[2]);
  for (const ManifestCell& cell : run.manifest.cells) {
    EXPECT_EQ(cell.status, CellStatus::kOk);
  }
}

TEST(DeadlineTest, OverrunningUnitsAreMarkedTimeoutInsteadOfHanging) {
  SweepSpec spec = tiny_spec();
  spec.finalize = nullptr;
  spec.axes = {{"alpha", {1}}, {"mode", {"fast"}}};
  spec.replications = 2;
  spec.run = [](const Cell& cell, std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    obs::RunReport report;
    report.set("value", cell.number("alpha"));
    return report;
  };
  EngineOptions options;
  options.failure_budget_pct = 100.0;
  options.unit_deadline_seconds = 0.001;
  const SweepRun run = run_sweep(spec, options);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kPartial);
  ASSERT_EQ(run.manifest.cells.size(), 1u);
  const ManifestCell& cell = run.manifest.cells[0];
  EXPECT_EQ(cell.status, CellStatus::kFailed);
  ASSERT_EQ(cell.failures.size(), 2u);
  for (const UnitFailure& failure : cell.failures) {
    EXPECT_EQ(failure.error_class, ErrorClass::kTimeout);
    EXPECT_NE(failure.message.find("deadline"), std::string::npos);
  }
  EXPECT_TRUE(cell.metrics.empty());  // overrun results are discarded
}

// ------------------------------------------------ journal / resume

TEST(JournalTest, RoundTripsAndToleratesTornTail) {
  const Manifest manifest = run_sweep(tiny_spec()).manifest;
  Journal journal;
  journal.spec = "tiny";
  journal.spec_hash = manifest.spec_hash;
  journal.seed = 99;
  journal.replications = 4;
  journal.cells = manifest.cells;

  const std::string jsonl = journal_to_jsonl(journal);
  const Journal parsed = parse_journal(jsonl);
  EXPECT_EQ(parsed.spec, "tiny");
  EXPECT_EQ(parsed.spec_hash, journal.spec_hash);
  EXPECT_EQ(parsed.seed, 99u);
  EXPECT_EQ(parsed.cells.size(), 6u);
  EXPECT_EQ(journal_to_jsonl(parsed), jsonl);

  // A torn final line (simulating a non-atomic writer dying mid-append)
  // drops only that cell.
  const std::string torn = jsonl.substr(0, jsonl.size() - 25);
  EXPECT_EQ(parse_journal(torn).cells.size(), 5u);

  // Corruption anywhere else is an error, as is a foreign header.
  EXPECT_THROW((void)parse_journal("{\"schema\":\"other\"}\n"),
               PreconditionError);
}

TEST(JournalTest, TornMidRecordLineDropsOnlyThatCell) {
  // An appended shard journal can tear in the *middle* (a record written
  // by a dying incarnation, followed by its replacement's records): only
  // the damaged cell may be lost.
  const Manifest manifest = run_sweep(tiny_spec()).manifest;
  Journal journal;
  journal.spec = "tiny";
  journal.spec_hash = manifest.spec_hash;
  journal.seed = 99;
  journal.replications = 4;
  journal.cells = manifest.cells;

  std::vector<std::string> lines;
  std::istringstream in(journal_to_jsonl(journal));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u);  // header + 6 cells
  lines[2] = lines[2].substr(0, lines[2].size() / 2);  // tear cell 1
  std::string torn;
  for (const std::string& line : lines) torn += line + "\n";

  const Journal parsed = parse_journal(torn);
  ASSERT_EQ(parsed.cells.size(), 5u);
  EXPECT_EQ(parsed.cells[0].index, 0u);
  EXPECT_EQ(parsed.cells[1].index, 2u);  // the record *after* the tear
  EXPECT_EQ(parsed.cells.back().index, 5u);
}

TEST(JournalTest, DuplicateCellEntriesLastWinOnResume) {
  const std::string dir = temp_dir("resume_dup");
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/sweep.journal";
  EngineOptions options;
  options.jobs = 1;
  options.journal_path = journal_path;
  (void)run_sweep(tiny_spec(), options);

  // A re-anchored shard can journal a cell twice (the dead incarnation's
  // record plus its replacement's).  Resume must honor the newest record.
  Journal journal = *load_journal(journal_path);
  ASSERT_EQ(journal.cells.size(), 6u);
  ManifestCell rewritten = journal.cells[0];
  rewritten.metrics[0].second.mean = 777.0;
  journal.cells.push_back(rewritten);
  atomic_write_file(journal_path, journal_to_jsonl(journal));

  EngineOptions resume_options;
  resume_options.jobs = 1;
  resume_options.resume_journal = journal_path;
  const SweepRun resumed = run_sweep(tiny_spec(), resume_options);
  EXPECT_EQ(resumed.cells_resumed, 6u);  // unique cells, not records
  EXPECT_EQ(resumed.units_run, 0u);
  EXPECT_EQ(resumed.manifest.cells[0].metrics[0].second.mean, 777.0);
}

TEST(JournalTest, TwoShardsJournalingTheSameCellHashResumeByteIdentical) {
  // Two workers that both computed a cell (a reassignment that raced the
  // original's journal flush) produce identical records — replaying their
  // concatenation stays byte-identical to the uninterrupted run.
  const std::string dir = temp_dir("resume_twoshard");
  std::filesystem::create_directories(dir);
  const std::string path_a = dir + "/shard-a.journal";
  const std::string path_b = dir + "/shard-b.journal";
  EngineOptions options;
  options.jobs = 1;
  options.journal_path = path_a;
  const std::string reference = to_json(run_sweep(tiny_spec(), options).manifest);
  options.journal_path = path_b;
  (void)run_sweep(tiny_spec(), options);

  // Append shard B's cell records (minus its header) onto shard A.
  std::istringstream in(read_file(path_b));
  std::string merged = read_file(path_a);
  std::string line;
  std::getline(in, line);  // drop header
  while (std::getline(in, line)) merged += line + "\n";
  atomic_write_file(path_a, merged);

  EngineOptions resume_options;
  resume_options.jobs = 1;
  resume_options.resume_journal = path_a;
  const SweepRun resumed = run_sweep(tiny_spec(), resume_options);
  EXPECT_EQ(resumed.cells_resumed, 6u);
  EXPECT_EQ(resumed.units_run, 0u);
  EXPECT_EQ(to_json(resumed.manifest), reference);
}

TEST(JournalTest, CancelledRunJournalsCompletedCellsAndResumeIsBitIdentical) {
  const std::string dir = temp_dir("resume");
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/sweep.journal";

  // Uninterrupted reference, serial.
  EngineOptions reference_options;
  reference_options.jobs = 1;
  const std::string reference =
      to_json(run_sweep(tiny_spec(), reference_options).manifest);

  // Interrupted run: the runner itself trips the cancel flag partway in
  // (after 10 of 24 units: cells 0-1 complete, cell 2 in flight).
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  auto units_done = std::make_shared<std::atomic<int>>(0);
  SweepSpec spec = tiny_spec();
  const auto inner = spec.run;
  spec.run = [cancel, units_done, inner](const Cell& cell,
                                         std::uint64_t rep_seed) {
    obs::RunReport report = inner(cell, rep_seed);
    if (units_done->fetch_add(1) + 1 >= 10) cancel->store(true);
    return report;
  };
  EngineOptions interrupted_options;
  interrupted_options.jobs = 1;
  interrupted_options.journal_path = journal_path;
  interrupted_options.cancel = cancel.get();
  const SweepRun interrupted = run_sweep(spec, interrupted_options);
  EXPECT_EQ(interrupted.manifest.outcome, RunOutcome::kInterrupted);
  EXPECT_GE(interrupted.cells_skipped, 1u);
  for (const ManifestCell& cell : interrupted.manifest.cells) {
    EXPECT_NE(cell.status, CellStatus::kFailed);
    if (cell.status == CellStatus::kSkipped) {
      EXPECT_TRUE(cell.metrics.empty());
    }
  }

  // The journal holds exactly the cleanly completed cells.
  const std::optional<Journal> journal = load_journal(journal_path);
  ASSERT_TRUE(journal.has_value());
  EXPECT_EQ(journal->cells.size(),
            tiny_spec().cells().size() - interrupted.cells_skipped);

  // Resume with the pristine spec: only the remainder runs, and the final
  // manifest is byte-identical to the uninterrupted reference.
  EngineOptions resume_options;
  resume_options.jobs = 1;
  resume_options.resume_journal = journal_path;
  const SweepRun resumed = run_sweep(tiny_spec(), resume_options);
  EXPECT_EQ(resumed.cells_resumed, journal->cells.size());
  EXPECT_EQ(resumed.units_run,
            interrupted.cells_skipped * 4u);  // remainder only
  EXPECT_EQ(resumed.manifest.outcome, RunOutcome::kComplete);
  EXPECT_EQ(to_json(resumed.manifest), reference);
}

TEST(JournalTest, ResumeRejectsAForeignSweep) {
  const std::string dir = temp_dir("resume_mismatch");
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/sweep.journal";
  EngineOptions options;
  options.journal_path = journal_path;
  (void)run_sweep(tiny_spec(), options);

  SweepSpec reseeded = tiny_spec();
  reseeded.seed = 1234;  // different content hash → different sweep
  EngineOptions resume_options;
  resume_options.resume_journal = journal_path;
  EXPECT_THROW((void)run_sweep(reseeded, resume_options), PreconditionError);
}

TEST(JournalTest, ResumeFromMissingJournalRunsTheFullSweep) {
  EngineOptions options;
  options.resume_journal = temp_dir("no_such") + "/gone.journal";
  const SweepRun run = run_sweep(tiny_spec(), options);
  EXPECT_EQ(run.cells_resumed, 0u);
  EXPECT_EQ(run.units_run, 24u);
  EXPECT_EQ(run.manifest.outcome, RunOutcome::kComplete);
}

TEST(JournalTest, FailedCellsRerunOnResume) {
  const std::string dir = temp_dir("resume_failed");
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/sweep.journal";

  EngineOptions options;
  options.failure_budget_pct = 50.0;
  options.journal_path = journal_path;
  const SweepRun partial = run_sweep(failing_spec({0}), options);
  EXPECT_EQ(partial.manifest.outcome, RunOutcome::kPartial);
  // Journal records only the four healthy cells.
  EXPECT_EQ(load_journal(journal_path)->cells.size(), 4u);

  // Resuming with a fixed runner completes the sweep bit-identically to a
  // clean run of that fixed spec.
  SweepSpec fixed = failing_spec({});  // same grid/hash inputs, no failures
  EngineOptions resume_options;
  resume_options.resume_journal = journal_path;
  const SweepRun resumed = run_sweep(fixed, resume_options);
  EXPECT_EQ(resumed.cells_resumed, 4u);
  EXPECT_EQ(resumed.units_run, 8u);
  EXPECT_EQ(resumed.manifest.outcome, RunOutcome::kComplete);
  EXPECT_EQ(to_json(resumed.manifest), to_json(run_sweep(fixed).manifest));
}

TEST(JournalTest, HeaderCountsMustBeNonNegativeIntegersBelow2To64) {
  const auto header = [](const std::string& seed, const std::string& reps) {
    return "{\"schema\":\"gridtrust.lab.journal/v1\",\"spec\":\"tiny\","
           "\"spec_hash\":\"0\",\"seed\":" +
           seed + ",\"replications\":" + reps + "}\n";
  };
  const Journal valid = parse_journal(header("7", "3"));
  EXPECT_EQ(valid.seed, 7u);
  EXPECT_EQ(valid.replications, 3u);
  for (const std::string& value : invalid_counts()) {
    EXPECT_THROW((void)parse_journal(header(value, "3")), PreconditionError)
        << "seed " << value;
    EXPECT_THROW((void)parse_journal(header("7", value)), PreconditionError)
        << "replications " << value;
  }
}

TEST(JournalTest, ResumeFromEveryTruncationIsByteIdentical) {
  // A crash can cut the append-only journal at any byte.  Every cut inside
  // the appended cell lines must resume to the uninterrupted manifest; a
  // cut inside the header object must be refused.
  const std::string dir = temp_dir("truncate");
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/sweep.journal";
  EngineOptions options;
  options.jobs = 2;
  options.journal_path = journal_path;
  const std::string reference =
      to_json(run_sweep(tiny_spec(), options).manifest);
  const std::string full = read_file(journal_path);
  ASSERT_EQ(parse_journal(full).cells.size(), tiny_spec().cells().size());
  const std::size_t header_end = full.find('\n');  // header object ends here

  const std::string copy = dir + "/truncated.journal";
  EngineOptions resume;
  resume.jobs = 2;
  resume.resume_journal = copy;  // no journal_path: the copy is not rewritten
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);  // every cut drops a torn line, noisily
  for (std::size_t size = 0; size <= full.size(); ++size) {
    {
      std::ofstream out(copy, std::ios::binary | std::ios::trunc);
      out << full.substr(0, size);
    }
    if (size < header_end) {
      EXPECT_THROW((void)run_sweep(tiny_spec(), resume), PreconditionError)
          << "cut at byte " << size;
    } else {
      EXPECT_EQ(to_json(run_sweep(tiny_spec(), resume).manifest), reference)
          << "cut at byte " << size;
    }
    if (HasFailure()) break;
  }

  // Resuming into the cut journal itself (as `--resume` does) rewrites it
  // before appending, so a torn line never swallows the next record: cut
  // each cell line in half, resume into the copy, and the finished
  // journal holds every cell again.
  for (std::size_t end = full.find('\n') + 1; end < full.size();) {
    const std::size_t next = full.find('\n', end) + 1;
    atomic_write_file(copy, full.substr(0, end + (next - end) / 2));
    EngineOptions into = resume;
    into.journal_path = copy;
    EXPECT_EQ(to_json(run_sweep(tiny_spec(), into).manifest), reference)
        << "cut at byte " << end + (next - end) / 2;
    EXPECT_EQ(parse_journal(read_file(copy)).cells.size(),
              tiny_spec().cells().size())
        << "cut at byte " << end + (next - end) / 2;
    end = next;
  }
  set_log_level(saved);
}

TEST(JournalTest, AppendsSyncEachCellOnceAndTheDirectoryOnce) {
  const std::string dir = temp_dir("syncs");
  std::filesystem::create_directories(dir);
  const std::size_t cells = tiny_spec().cells().size();
  for (const std::size_t jobs : {1u, 2u}) {
    EngineOptions options;
    options.jobs = jobs;
    options.journal_path = dir + "/sweep.journal";
    const FsSyncStats before = fs_sync_stats();
    (void)run_sweep(tiny_spec(), options);
    const FsSyncStats after = fs_sync_stats();
    // One file sync and one directory sync for the atomic header write,
    // then one fdatasync per appended cell.
    EXPECT_EQ(after.file_syncs - before.file_syncs, cells + 1) << jobs;
    EXPECT_EQ(after.dir_syncs - before.dir_syncs, 1u) << jobs;
  }
}

TEST(JournalTest, CellLineIsDurableBeforeItsCallbackFires) {
  const std::string dir = temp_dir("durable_callback");
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/sweep.journal";
  EngineOptions options;
  options.jobs = 2;
  options.journal_path = journal_path;
  std::atomic<int> seen{0};
  std::atomic<int> missing{0};
  options.on_cell_complete = [&](const ManifestCell& cell) {
    ++seen;
    const Journal journal = parse_journal(read_file(journal_path));
    const bool journaled = std::any_of(
        journal.cells.begin(), journal.cells.end(),
        [&](const ManifestCell& c) { return c.index == cell.index; });
    if (!journaled) ++missing;
  };
  (void)run_sweep(tiny_spec(), options);
  EXPECT_EQ(seen.load(), static_cast<int>(tiny_spec().cells().size()));
  EXPECT_EQ(missing.load(), 0);
}

TEST(JournalTest, AppendToAFullDeviceThrowsSystemErrorWithoutASync) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  AppendFile file("/dev/full");
  const FsSyncStats before = fs_sync_stats();
  EXPECT_THROW(file.append("{\"index\":0}\n"), std::system_error);
  EXPECT_EQ(fs_sync_stats().file_syncs, before.file_syncs);
}

TEST(JournalTest, AppendFileRequiresAnExistingFile) {
  EXPECT_THROW(AppendFile(temp_dir("append_missing") + "/no.journal"),
               PreconditionError);
}

TEST(JournalTest, AFailedAppendLeavesAsSystemErrorBeforeAnyCallback) {
  // Cap this process's file size at the journal header, so the header's
  // atomic write succeeds and every append fails with EFBIG (SIGXFSZ is
  // ignored for the duration).  With finishers on two workers, no
  // callback may report an ok cell and the sweep must leave as
  // std::system_error.
  const std::string dir = temp_dir("append_error");
  std::filesystem::create_directories(dir);
  const SweepSpec spec = tiny_spec();
  Journal header;
  header.spec = spec.name;
  header.spec_hash = manifest_header(spec, spec.seed, spec.replications)
                         .spec_hash;
  header.seed = spec.seed;
  header.replications = spec.replications;
  const std::string header_text = journal_to_jsonl(header);

  EngineOptions options;
  options.jobs = 2;
  options.journal_path = dir + "/sweep.journal";
  std::atomic<int> reported{0};
  options.on_cell_complete = [&](const ManifestCell& cell) {
    if (cell.status == CellStatus::kOk) ++reported;
  };
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = header_text.size();
  const auto previous = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  bool threw_system_error = false;
  try {
    (void)run_sweep(spec, options);
  } catch (const std::system_error&) {
    threw_system_error = true;
  }
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, previous);
  EXPECT_TRUE(threw_system_error);
  EXPECT_EQ(reported.load(), 0);
  EXPECT_EQ(read_file(options.journal_path), header_text);
}

// ------------------------------------------------ v2 schema / atomic write

TEST(ManifestV2Test, FailureRecordsRoundTripByteForByte) {
  EngineOptions options;
  options.failure_budget_pct = 50.0;
  options.retry.max_attempts = 2;
  options.retry.backoff_initial_ms = 0;
  const Manifest manifest = run_sweep(failing_spec({0}), options).manifest;
  EXPECT_EQ(manifest.outcome, RunOutcome::kPartial);
  const std::string json = to_json(manifest);
  const Manifest parsed = parse_manifest(json);
  EXPECT_EQ(parsed.outcome, RunOutcome::kPartial);
  ASSERT_EQ(parsed.cells.size(), 6u);
  EXPECT_EQ(parsed.cells[4].status, CellStatus::kFailed);
  ASSERT_EQ(parsed.cells[4].failures.size(), 1u);
  EXPECT_EQ(parsed.cells[4].failures[0], manifest.cells[4].failures[0]);
  EXPECT_EQ(to_json(parsed), json);  // byte-stable round trip
}

TEST(ManifestV2Test, V1DocumentsParseWithDefaults) {
  // A v1 manifest (no outcome/status/failures keys) as written before the
  // failure-semantics schema bump.
  const std::string v1 =
      "{\"schema\":\"gridtrust.lab.manifest/v1\",\"spec\":\"old\","
      "\"title\":\"t\",\"spec_hash\":\"00\",\"git_rev\":\"unknown\","
      "\"seed\":7,\"replications\":2,\"tolerance_pct\":1,\"cells\":[\n"
      "{\"index\":0,\"params\":{\"alpha\":1},\"param_hash\":\"00\","
      "\"replications\":2,\"metrics\":{\"value\":{\"mean\":1.5,\"ci95\":0.1,"
      "\"n\":2}}}\n]}\n";
  const Manifest parsed = parse_manifest(v1);
  EXPECT_EQ(parsed.outcome, RunOutcome::kComplete);
  ASSERT_EQ(parsed.cells.size(), 1u);
  EXPECT_EQ(parsed.cells[0].status, CellStatus::kOk);
  EXPECT_TRUE(parsed.cells[0].failures.empty());
  // Re-serialization upgrades in place to v2.
  EXPECT_NE(to_json(parsed).find("gridtrust.lab.manifest/v2"),
            std::string::npos);
  EXPECT_NE(to_json(parsed).find("\"status\":\"ok\""), std::string::npos);
}

TEST(ManifestV2Test, StatusMismatchIsACompareViolation) {
  const Manifest base = run_sweep(tiny_spec()).manifest;
  Manifest failed = base;
  failed.cells[1].status = CellStatus::kFailed;
  const CompareResult result = compare_manifests(failed, base);
  EXPECT_FALSE(result.pass);
  bool found = false;
  for (const Violation& v : result.violations) {
    if (v.what.find("status failed") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CacheTest, CorruptEntryIsEvictedAndCounted) {
  const SweepSpec spec = tiny_spec();
  EngineOptions options;
  options.cache_dir = temp_dir("evict");
  (void)run_sweep(spec, options);
  for (const auto& entry :
       std::filesystem::directory_iterator(options.cache_dir)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{torn", f);
    std::fclose(f);
  }

  obs::MetricsRegistry registry;
  obs::install(&registry);
  const SweepRun rerun = run_sweep(spec, options);
  const obs::Snapshot snap = registry.snapshot();
  obs::install(nullptr);

  EXPECT_EQ(rerun.cache_hits, 0u);
  EXPECT_EQ(snap.counters.at("lab.cache_corrupt_evictions"), 6.0);
  // Eviction deleted the corrupt files; the rerun then re-stored clean
  // entries, so a third run hits everything.
  EXPECT_EQ(run_sweep(spec, options).cache_hits, 6u);
}

TEST(AtomicWriteTest, TornWriterSimulationNeverExposesAPartialManifest) {
  // Simulate the classic torn-write hazard: a stale temp file (from a
  // crashed writer) next to the target must not corrupt a later atomic
  // write, and the target transitions old-content → new-content with no
  // intermediate state observable through the final path.
  const std::string dir = temp_dir("atomic");
  std::filesystem::create_directories(dir);
  const std::string target = dir + "/manifest.json";
  atomic_write_file(target, "old complete document\n");

  {
    std::ofstream stale(target + ".tmp.99999");
    stale << "{torn garbage from a dead writer";
  }
  const Manifest manifest = run_sweep(tiny_spec()).manifest;
  atomic_write_file(target, to_json(manifest));
  // The read-back parses — no interleaving with the stale temp content.
  EXPECT_EQ(to_json(parse_manifest(read_file(target))), to_json(manifest));
}

TEST(JsonInTest, ParsesScalarsContainersAndEscapes) {
  const obs::JsonValue value = obs::parse_json(
      "{\"a\":[1,2.5,-3e2],\"b\":{\"nested\":true},\"s\":\"q\\\"\\u0041\","
      "\"z\":null}");
  EXPECT_EQ(value.at("a").as_array().size(), 3u);
  EXPECT_EQ(value.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_EQ(value.at("b").at("nested").kind(), obs::JsonValue::Kind::kBool);
  EXPECT_EQ(value.at("s").as_string(), "q\"A");
  EXPECT_TRUE(value.at("z").is_null());
  EXPECT_FALSE(value.has("missing"));
}

TEST(JsonInTest, PlainIntegersKeepTheirExactValue) {
  const obs::JsonValue value = obs::parse_json(
      "[9007199254740993,18446744073709551615,0,18446744073709551616,-1,"
      "1.0,1e3]");
  const std::vector<obs::JsonValue>& items = value.as_array();
  EXPECT_EQ(items[0].exact_uint(), 9007199254740993u);
  EXPECT_EQ(items[0].as_number(), 9007199254740992.0);  // nearest double
  EXPECT_EQ(items[1].exact_uint(), 18446744073709551615u);
  EXPECT_EQ(items[2].exact_uint(), 0u);
  // 2^64 does not fit; a sign, a fraction or an exponent is not plain.
  for (std::size_t i = 3; i < items.size(); ++i) {
    EXPECT_EQ(items[i].exact_uint(), std::nullopt) << i;
  }
  EXPECT_EQ(items[3].as_number(), 18446744073709551616.0);
  EXPECT_THROW((void)obs::parse_json("\"7\"").exact_uint(),
               PreconditionError);
}

TEST(JsonInTest, RejectsMalformedDocuments) {
  EXPECT_THROW((void)obs::parse_json(""), PreconditionError);
  EXPECT_THROW((void)obs::parse_json("{\"a\":1,}"), PreconditionError);
  EXPECT_THROW((void)obs::parse_json("[1 2]"), PreconditionError);
  EXPECT_THROW((void)obs::parse_json("{\"a\":1} trailing"),
               PreconditionError);
  EXPECT_THROW((void)obs::parse_json("\"unterminated"), PreconditionError);
}

TEST(JsonInTest, RejectsNestingDeeperThanTheLimit) {
  // 200,000 nested openers overflowed the stack before the limit.
  for (const std::string opener : {"[", "{\"a\":"}) {
    std::string deep;
    for (int i = 0; i < 200000; ++i) deep += opener;
    try {
      (void)obs::parse_json(deep);
      ADD_FAILURE() << "parsed 200000 nested " << opener;
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find("deeper than 64"),
                std::string::npos)
          << error.what();
    }
  }
  // 64 levels parse; 65 do not.
  EXPECT_NO_THROW(
      (void)obs::parse_json(std::string(64, '[') + std::string(64, ']')));
  EXPECT_THROW(
      (void)obs::parse_json(std::string(65, '[') + std::string(65, ']')),
      PreconditionError);
}

}  // namespace
}  // namespace gridtrust::lab
