// The lab workloads.
//
//   paper_tables         the "tables" suite (table4-9) through the sweep
//                        engine, no journal.
//   campaigns_journaled  chaos_robustness, backend_tournament and
//                        market_tournament with a checkpoint journal.
//
// Each pass runs every spec of the workload once at the pass seed on a
// two-thread pool and writes its manifest, as `gridtrust_lab run <spec>
// --jobs 2 --out <manifest>` does, except that one pool started at set-up
// serves every sweep.  Traced passes swap in copies of the catalog specs
// whose runners record spans around the public calls.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/journal.hpp"
#include "lab/manifest.hpp"
#include "sched/security_model.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_builder.hpp"
#include "sim/trm_simulation.hpp"

namespace perfbench {

namespace {

namespace lab = gridtrust::lab;
namespace obs = gridtrust::obs;
namespace sim = gridtrust::sim;

constexpr std::size_t kThreads = 2;
constexpr std::uint64_t kSeedStream = 0x6c61622d70617373;  // "lab-pass"
/// Set-up is repeated and its median reported: one reading of a
/// sub-millisecond set-up does not repeat from run to run.
constexpr std::size_t kSetupRepeats = 101;
constexpr std::size_t kMaxTraceSpans = 200000;

std::vector<std::string> spec_names(const std::string& workload) {
  if (workload == "paper_tables") return lab::resolve_run_names("tables");
  return {"chaos_robustness", "backend_tournament", "market_tournament"};
}

/// Span and sample names the lab workloads record.
struct Ids {
  Tracer::Id pass = 0;
  Tracer::Id sweep = 0;
  Tracer::Id unit = 0;
  Tracer::Id finalize = 0;
  Tracer::Id manifest_write = 0;
  Tracer::Id manifest_read = 0;
  Tracer::Id scenario_build = 0;
  Tracer::Id draw_instance = 0;
  Tracer::Id run_report = 0;
  Tracer::Id events_per_trms = 0;
  Tracer::Id journal_bytes = 0;
  Tracer::Id fsyncs = 0;

  explicit Ids(Tracer& t)
      : pass(t.intern("lab.pass")),
        sweep(t.intern("lab.sweep")),
        unit(t.intern("lab.unit")),
        finalize(t.intern("lab.cell_finalize")),
        manifest_write(t.intern("lab.manifest_write")),
        manifest_read(t.intern("lab.manifest_read")),
        scenario_build(t.intern("sim.scenario_build")),
        draw_instance(t.intern("sim.draw_instance")),
        run_report(t.intern("obs.run_report")),
        events_per_trms(t.intern("des.events_per_trms")),
        journal_bytes(t.intern("lab.journal_bytes")),
        fsyncs(t.intern("fs.fsyncs")) {}
};

/// End of the calling thread's latest traced unit.  The engine finalizes a
/// cell (aggregate, journal flush) on the thread that ran its last unit and
/// then fires on_cell_complete there, so the span between the two is the
/// cell's finalize time.
thread_local Clock::time_point last_unit_end;

template <class Body>
obs::RunReport traced_unit(Tracer& tracer, Tracer::Id unit, Body&& body) {
  const auto begin = Clock::now();
  obs::RunReport report = body();
  const auto end = Clock::now();
  tracer.span(unit, begin, end);
  last_unit_end = end;
  return report;
}

struct TableShape {
  std::string heuristic;
  bool batch = false;
  bool consistent = false;
};

/// The scenario of each paper-table spec, as lab/catalog.cpp declares it.
TableShape table_shape(const std::string& spec) {
  static const std::map<std::string, TableShape> shapes = {
      {"table4", {"mct", false, false}},
      {"table5", {"mct", false, true}},
      {"table6", {"min-min", true, false}},
      {"table7", {"min-min", true, true}},
      {"table8", {"sufferage", true, false}},
      {"table9", {"sufferage", true, true}},
  };
  const auto it = shapes.find(spec);
  GT_REQUIRE(it != shapes.end(), "no table shape for spec " + spec);
  return it->second;
}

/// The catalog's paper-table unit (one paired replication: draw_instance,
/// then run_trms unaware and aware) with a span around each public call.
/// The traced-vs-untraced manifest check proves it computes the same thing.
lab::SweepSpec traced_table_spec(lab::SweepSpec spec, Tracer& tracer,
                                 const Ids& ids) {
  const TableShape shape = table_shape(spec.name);
  const Tracer::Id trms = tracer.intern("sim.run_trms." + shape.heuristic);
  spec.run = [shape, trms, ids, &tracer](const lab::Cell& cell,
                                         std::uint64_t rep_seed) {
    return traced_unit(tracer, ids.unit, [&] {
      const sim::Scenario scenario = [&] {
        const ScopedSpan span(&tracer, ids.scenario_build);
        sim::ScenarioBuilder builder;
        builder.tasks(static_cast<std::size_t>(cell.number("tasks")))
            .heuristic(shape.heuristic);
        if (shape.batch) {
          builder.batch(30.0);
        } else {
          builder.immediate();
        }
        if (shape.consistent) {
          builder.consistent();
        } else {
          builder.inconsistent();
        }
        return builder.build();
      }();
      gridtrust::Rng rng(rep_seed);
      const sim::Instance instance = [&] {
        const ScopedSpan span(&tracer, ids.draw_instance);
        return sim::draw_instance(
            scenario, gridtrust::sched::trust_unaware_policy(), rng);
      }();
      const sim::SimulationResult unaware = [&] {
        const ScopedSpan span(&tracer, trms);
        return sim::run_trms(instance.problem, scenario.rms);
      }();
      const sim::SimulationResult aware = [&] {
        const ScopedSpan span(&tracer, trms);
        return sim::run_trms(instance.problem.with_policy(
                                 gridtrust::sched::trust_aware_policy()),
                             scenario.rms);
      }();
      tracer.sample(ids.events_per_trms, static_cast<double>(unaware.events));
      tracer.sample(ids.events_per_trms, static_cast<double>(aware.events));
      const ScopedSpan span(&tracer, ids.run_report);
      obs::RunReport report;
      report.set("unaware.makespan", unaware.makespan);
      report.set("unaware.utilization_pct", unaware.utilization_pct);
      report.set("unaware.mean_flow_time", unaware.mean_flow_time);
      report.set("unaware.flow_time_p95", unaware.flow_time_p95);
      report.set("unaware.batches", static_cast<double>(unaware.batches));
      report.set("aware.makespan", aware.makespan);
      report.set("aware.utilization_pct", aware.utilization_pct);
      report.set("aware.mean_flow_time", aware.mean_flow_time);
      report.set("aware.flow_time_p95", aware.flow_time_p95);
      report.set("aware.batches", static_cast<double>(aware.batches));
      report.set("makespan_diff", unaware.makespan - aware.makespan);
      return report;
    });
  };
  return spec;
}

/// A campaign spec whose catalog runner is wrapped in a span labelled by
/// the cell's backend (backend_tournament) or mechanism (market_tournament);
/// chaos_robustness campaigns all share one label.
lab::SweepSpec traced_campaign_spec(lab::SweepSpec spec, Tracer& tracer,
                                    const Ids& ids) {
  std::string axis;
  std::string prefix;
  if (spec.name == "backend_tournament") {
    axis = "backend";
    prefix = "chaos.campaign.";
  } else if (spec.name == "market_tournament") {
    axis = "mechanism";
    prefix = "econ.campaign.";
  }
  const Tracer::Id fixed = tracer.intern("chaos.campaign.robustness");
  std::vector<std::pair<std::string, Tracer::Id>> labels;
  for (const lab::Axis& a : spec.axes) {
    if (a.name != axis) continue;
    for (const lab::ParamValue& value : a.values) {
      std::string name = value.text();
      std::replace(name.begin(), name.end(), ':', '_');
      labels.emplace_back(value.text(), tracer.intern(prefix + name));
    }
  }
  spec.run = [inner = spec.run, axis, labels, fixed, ids, &tracer](
                 const lab::Cell& cell, std::uint64_t rep_seed) {
    Tracer::Id id = fixed;
    if (!axis.empty()) {
      const std::string& value = cell.text(axis);
      for (const auto& [text, label] : labels) {
        if (text == value) id = label;
      }
    }
    return traced_unit(tracer, ids.unit, [&] {
      const ScopedSpan span(&tracer, id);
      return inner(cell, rep_seed);
    });
  };
  return spec;
}

struct SpecRun {
  lab::SweepSpec spec;    ///< as registered in the catalog
  lab::SweepSpec traced;  ///< the same sweep with spans (traced runs only)
  std::string manifest_path;
  std::string journal_path;  ///< empty: no journal
};

/// Everything made before the first timed unit: the spec copies, the
/// output directory, and the two-thread pool with its workers running.
struct Setup {
  std::vector<SpecRun> specs;
  std::unique_ptr<gridtrust::ThreadPool> pool;
};

Setup make_setup(const Options& options, Tracer* tracer, const Ids& ids) {
  Setup setup;
  std::filesystem::create_directories(options.out_dir);
  const bool journaled = options.workload == "campaigns_journaled";
  for (const std::string& name : spec_names(options.workload)) {
    const lab::SweepSpec* spec = lab::find_spec(name);
    GT_REQUIRE(spec != nullptr, "no catalog spec " + name);
    SpecRun run;
    run.spec = *spec;
    run.manifest_path = options.out_dir + "/" + name + ".manifest.json";
    if (journaled) {
      run.journal_path = options.out_dir + "/" + name + ".journal.jsonl";
    }
    if (tracer != nullptr) {
      run.traced = journaled ? traced_campaign_spec(*spec, *tracer, ids)
                             : traced_table_spec(*spec, *tracer, ids);
    }
    setup.specs.push_back(std::move(run));
  }
  setup.pool = std::make_unique<gridtrust::ThreadPool>(kThreads);
  setup.pool->parallel_for(kThreads, [](std::size_t) {});
  return setup;
}

/// What a pass left behind for the untimed checks, per spec.
struct SweepOutcome {
  std::string json;
  std::size_t units_failed = 0;
  std::size_t cells_failed = 0;
  lab::RunOutcome outcome = lab::RunOutcome::kComplete;
};

/// Records a check that fails (rather than crashes) when `body` throws.
template <class Body>
void guarded_check(Checks& checks, const std::string& name, Body&& body) {
  bool ok = false;
  std::uint64_t failed_ops = 1;
  try {
    ok = body(failed_ops);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: check \"%s\" threw: %s\n", name.c_str(),
                 e.what());
  }
  checks.record(name, ok, failed_ops);
}

/// The journal holds exactly the manifest's cells (in completion order).
bool journal_matches(const std::string& path, const lab::Manifest& manifest) {
  lab::Journal journal = lab::parse_journal(gridtrust::read_file(path));
  if (journal.spec != manifest.spec ||
      journal.cells.size() != manifest.cells.size()) {
    return false;
  }
  std::sort(journal.cells.begin(), journal.cells.end(),
            [](const lab::ManifestCell& a, const lab::ManifestCell& b) {
              return a.index < b.index;
            });
  for (std::size_t i = 0; i < journal.cells.size(); ++i) {
    if (lab::cell_to_json(journal.cells[i]) !=
        lab::cell_to_json(manifest.cells[i])) {
      return false;
    }
  }
  return true;
}

void add_lab_layers(Result& result, const Tracer& tracer, bool journaled) {
  const SpanTable table(tracer);
  const auto threads = static_cast<double>(kThreads);
  const double sweeps =
      std::max<double>(1.0, static_cast<double>(table.count("lab.sweep")));
  const double sweep_capacity = table.total_ns("lab.sweep") * threads;
  const double unit_ns = table.total_ns("lab.unit");
  const double finalize_ns = table.total_ns("lab.cell_finalize");
  const double non_unit_ns = sweep_capacity - unit_ns;

  auto& v = result.values;
  v["sim.scenario_build_us"] = table.median_ns("sim.scenario_build") / 1e3;
  v["sim.draw_instance_us"] = table.median_ns("sim.draw_instance") / 1e3;
  for (const char* h : {"mct", "min-min", "sufferage"}) {
    v[std::string("sim.run_trms_us.") + h] =
        table.median_ns(std::string("sim.run_trms.") + h) / 1e3;
  }
  v["des.events_per_trms"] = table.median_sample("des.events_per_trms");
  for (const char* b : {"gamma", "beta", "fuzzy", "purge_gamma", "robustness"}) {
    v[std::string("chaos.campaign_ms.") + b] =
        table.median_ns(std::string("chaos.campaign.") + b) / 1e6;
  }
  for (const char* m : {"posted-cost", "posted-time", "auction"}) {
    v[std::string("econ.campaign_ms.") + m] =
        table.median_ns(std::string("econ.campaign.") + m) / 1e6;
  }
  v["lab.journal_ms"] = journaled ? finalize_ns / sweeps / 1e6 : 0.0;
  v["lab.journal_bytes"] = table.mean_sample("lab.journal_bytes");
  v["fs.fsyncs"] = table.mean_sample("fs.fsyncs");
  v["lab.manifest_write_ms"] = table.median_ns("lab.manifest_write") / 1e6;
  v["lab.manifest_read_ms"] = table.median_ns("lab.manifest_read") / 1e6;
  v["lab.non_unit_ms_per_sweep"] = non_unit_ns / sweeps / 1e6;
  v["pool.idle_share"] =
      sweep_capacity > 0.0
          ? (sweep_capacity - unit_ns - finalize_ns) / sweep_capacity
          : 0.0;

  std::vector<std::pair<std::string, double>> layers;
  if (journaled) {
    layers = {{"chaos.campaign (trust)", table.total_ns_prefix("chaos.")},
              {"econ.campaign", table.total_ns_prefix("econ.")}};
  } else {
    layers = {{"sim.scenario_build", table.total_ns("sim.scenario_build")},
              {"sim.draw_instance", table.total_ns("sim.draw_instance")},
              {"sim.run_trms (sched+des)",
               table.total_ns_prefix("sim.run_trms.")},
              {"obs.run_report", table.total_ns("obs.run_report")}};
  }
  layers.emplace_back(journaled ? "lab.cell_finalize (journal)"
                                : "lab.cell_finalize",
                      finalize_ns);
  layers.emplace_back("lab.dispatch+idle", non_unit_ns - finalize_ns);
  layers.emplace_back("lab.manifest_write x threads",
                      table.total_ns("lab.manifest_write") * threads);
  add_attribution(result, table.total_ns("lab.pass") * threads, layers);
}

}  // namespace

std::string lab_plan(const Options& options) {
  std::string out;
  for (std::size_t pass = 0; pass < 3; ++pass) {
    const std::uint64_t seed = pass_seed(options.seed, kSeedStream, pass);
    for (const std::string& name : spec_names(options.workload)) {
      const lab::SweepSpec* spec = lab::find_spec(name);
      GT_REQUIRE(spec != nullptr, "no catalog spec " + name);
      // The inputs of a sweep are its units' derived seeds.
      std::string seeds;
      for (const lab::Cell& cell : spec->cells()) {
        for (std::size_t rep = 0; rep < spec->replications; ++rep) {
          seeds += lab::hash_hex(
              lab::derive_rep_seed(seed, lab::cell_param_hash(cell), rep));
        }
      }
      out += "pass " + std::to_string(pass) + " seed " + std::to_string(seed) +
             " " + name + " units " +
             std::to_string(spec->cells().size() * spec->replications) +
             " inputs " + lab::hash_hex(lab::fnv1a64(seeds)) + "\n";
    }
  }
  return out;
}

Result run_lab(const Options& options) {
  Result result;
  const bool journaled = options.workload == "campaigns_journaled";
  // Untraced passes hand a null tracer to the same call sites.
  Tracer tracer;
  const Ids ids(tracer);

  std::vector<double> setup_times;
  std::optional<Setup> setup;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    setup.reset();
    const auto begin = Clock::now();
    setup.emplace(make_setup(options, options.trace ? &tracer : nullptr, ids));
    setup_times.push_back(seconds_between(begin, Clock::now()));
  }
  const std::size_t n_specs = setup->specs.size();

  std::vector<SweepOutcome> outcomes(n_specs);
  std::vector<std::string> untraced_json(n_specs);
  std::vector<std::string> first_json(n_specs);
  PassHooks hooks;
  hooks.run = [&](std::size_t pass, bool traced) -> std::uint64_t {
    Tracer* t = traced ? &tracer : nullptr;
    const ScopedSpan pass_span(t, ids.pass);
    const std::uint64_t seed = pass_seed(options.seed, kSeedStream,
                                         seed_index(pass, options.trace));
    std::uint64_t units = 0;
    for (std::size_t s = 0; s < n_specs; ++s) {
      const SpecRun& spec_run = setup->specs[s];
      lab::EngineOptions engine;
      engine.jobs = kThreads;
      engine.pool = setup->pool.get();
      engine.seed = seed;
      engine.journal_path = spec_run.journal_path;
      if (t != nullptr) {
        const Tracer::Id finalize = ids.finalize;
        engine.on_cell_complete = [t, finalize](const lab::ManifestCell&) {
          t->span(finalize, last_unit_end, Clock::now());
        };
      }
      const auto syncs_before = gridtrust::fs_sync_stats();
      const lab::SweepRun run = [&] {
        const ScopedSpan span(t, ids.sweep);
        return lab::run_sweep(t != nullptr ? spec_run.traced : spec_run.spec,
                              engine);
      }();
      SweepOutcome& outcome = outcomes[s];
      {
        const ScopedSpan span(t, ids.manifest_write);
        outcome.json = lab::to_json(run.manifest);
        gridtrust::atomic_write_file(spec_run.manifest_path, outcome.json);
      }
      outcome.units_failed = run.units_failed;
      outcome.cells_failed = run.cells_failed;
      outcome.outcome = run.manifest.outcome;
      units += run.units_run;
      if (t != nullptr) {
        const auto syncs = gridtrust::fs_sync_stats();
        t->sample(ids.fsyncs,
                  static_cast<double>(syncs.file_syncs + syncs.dir_syncs -
                                      syncs_before.file_syncs -
                                      syncs_before.dir_syncs));
        if (journaled) {
          t->sample(ids.journal_bytes,
                    static_cast<double>(
                        std::filesystem::file_size(spec_run.journal_path)));
        }
      }
    }
    return units;
  };
  hooks.check = [&](std::size_t pass) {
    const bool traced = options.trace && pass % 2 == 1;
    for (std::size_t s = 0; s < n_specs; ++s) {
      const SpecRun& spec_run = setup->specs[s];
      const SweepOutcome& outcome = outcomes[s];
      guarded_check(result.checks, "sweep complete with zero failed units",
                    [&](std::uint64_t& failed_ops) {
                      failed_ops = outcome.units_failed;
                      return outcome.outcome == lab::RunOutcome::kComplete &&
                             outcome.units_failed == 0 &&
                             outcome.cells_failed == 0;
                    });
      std::optional<lab::Manifest> manifest;
      guarded_check(result.checks, "manifest reads back unchanged",
                    [&](std::uint64_t&) {
                      const ScopedSpan span(traced ? &tracer : nullptr,
                                            ids.manifest_read);
                      manifest = lab::parse_manifest(
                          gridtrust::read_file(spec_run.manifest_path));
                      return lab::to_json(*manifest) == outcome.json;
                    });
      if (!spec_run.journal_path.empty()) {
        guarded_check(result.checks, "journal parses back to manifest cells",
                      [&](std::uint64_t&) {
                        return manifest.has_value() &&
                               journal_matches(spec_run.journal_path,
                                               *manifest);
                      });
      }
      if (traced) {
        guarded_check(result.checks,
                      "traced manifest byte-identical to untraced",
                      [&](std::uint64_t&) {
                        return outcome.json == untraced_json[s];
                      });
      } else {
        untraced_json[s] = outcome.json;
      }
      if (pass == 0) first_json[s] = outcome.json;
    }
  };

  warm_up(hooks);
  const std::vector<PassTiming> passes =
      timed_passes(options.seconds, options.trace, hooks);
  const double peak_rss = peak_rss_mib();
  result.units = total_units(passes);

  // Run-level checks, outside the timed window.
  const std::uint64_t first_seed =
      pass_seed(options.seed, kSeedStream, seed_index(0, options.trace));
  for (std::size_t s = 0; s < n_specs; ++s) {
    guarded_check(result.checks, "manifest at jobs=2 byte-identical to jobs=1",
                  [&](std::uint64_t&) {
                    lab::EngineOptions serial;
                    serial.jobs = 1;
                    serial.seed = first_seed;
                    return lab::to_json(
                               lab::run_sweep(setup->specs[s].spec, serial)
                                   .manifest) == first_json[s];
                  });
  }
  if (!journaled) {
    guarded_check(
        result.checks, "table4 at catalog seed matches baselines/table4.json",
        [&](std::uint64_t&) {
          const lab::SweepSpec* table4 = lab::find_spec("table4");
          GT_REQUIRE(table4 != nullptr, "no catalog spec table4");
          lab::EngineOptions engine;
          engine.jobs = kThreads;
          engine.pool = setup->pool.get();
          const lab::Manifest baseline = lab::parse_manifest(
              gridtrust::read_file("baselines/table4.json"));
          return lab::compare_manifests(
                     lab::run_sweep(*table4, engine).manifest, baseline)
              .pass;
        });
  }

  add_end_to_end(result, passes, median(setup_times), peak_rss);
  if (options.trace) {
    add_trace_overhead(result, passes);
    add_lab_layers(result, tracer, journaled);
    const std::string path =
        options.out_dir + "/trace-" + options.workload + ".json";
    tracer.write_chrome_trace(path, kMaxTraceSpans);
    result.report.push_back("spans written to " + path);
  }
  return result;
}

}  // namespace perfbench
