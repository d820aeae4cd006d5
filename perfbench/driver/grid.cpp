// The grid_scale workload: the DES huge tier (10^6 tasks x 10^4 machines x
// 10^3 domains), one scenario per pass at consecutive seeds.  Generating the
// scenario is set-up (untimed, reported as setup_s); driving it through the
// kernel is the timed unit of work, serial on the calling thread.
#include <optional>

#include "bench.hpp"
#include "des/scale.hpp"
#include "lab/spec.hpp"

namespace perfbench {

namespace {

namespace des = gridtrust::des;

constexpr std::uint64_t kSeedStream = 0x677269642d706173;  // "grid-pas"

des::ScaleScenarioParams pass_params(const Options& options,
                                     std::size_t pass) {
  des::ScaleScenarioParams params = des::huge_scale();
  params.seed = pass_seed(options.seed, kSeedStream,
                          seed_index(pass, options.trace));
  return params;
}

/// Hash of a generated scenario's state arrays (the inputs of a pass).
std::uint64_t scenario_digest(const des::ScaleScenario& scenario) {
  std::string bytes;
  const auto append = [&](const auto& values) {
    bytes.append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(values[0]));
  };
  append(scenario.machine_domain);
  append(scenario.machine_available);
  append(scenario.domain_trust);
  append(scenario.domain_speed);
  return gridtrust::lab::fnv1a64(bytes);
}

}  // namespace

std::string grid_plan(const Options& options) {
  std::string out;
  for (std::size_t pass = 0; pass < 3; ++pass) {
    const des::ScaleScenarioParams params = pass_params(options, pass);
    out += "pass " + std::to_string(pass) + " seed " +
           std::to_string(params.seed) + " tasks " +
           std::to_string(params.tasks) + " machines " +
           std::to_string(params.machines) + " domains " +
           std::to_string(params.domains) + " inputs " +
           gridtrust::lab::hash_hex(
               scenario_digest(des::generate_scale_scenario(params))) +
           "\n";
  }
  return out;
}

Result run_grid(const Options& options) {
  Result result;
  // Untraced passes hand a null tracer to the same call sites.
  Tracer tracer;
  const Tracer::Id pass_id = tracer.intern("des.pass");
  const Tracer::Id generate_id = tracer.intern("des.generate_scale_scenario");
  const Tracer::Id run_id = tracer.intern("des.run_scale_scenario");
  const Tracer::Id events_id = tracer.intern("des.events");
  const Tracer::Id pending_id = tracer.intern("des.pending_peak");

  std::optional<des::ScaleScenario> scenario;
  std::vector<double> generate_times;
  Clock::time_point generate_begin;
  Clock::time_point generate_end;
  des::ScaleResult last;
  std::uint64_t untraced_digest = 0;
  std::uint64_t first_digest = 0;

  PassHooks hooks;
  hooks.prepare = [&](std::size_t pass) {
    scenario.reset();
    const des::ScaleScenarioParams params = pass_params(options, pass);
    generate_begin = Clock::now();
    scenario.emplace(des::generate_scale_scenario(params));
    generate_end = Clock::now();
    generate_times.push_back(seconds_between(generate_begin, generate_end));
  };
  hooks.run = [&](std::size_t, bool traced) -> std::uint64_t {
    Tracer* t = traced ? &tracer : nullptr;
    const ScopedSpan pass_span(t, pass_id);
    {
      const ScopedSpan span(t, run_id);
      last = des::run_scale_scenario(*scenario);
    }
    if (t != nullptr) {
      t->span(generate_id, generate_begin, generate_end);
      t->sample(events_id, static_cast<double>(last.events));
      t->sample(pending_id, static_cast<double>(last.max_queue_depth));
    }
    return last.tasks_completed;
  };
  hooks.check = [&](std::size_t pass) {
    result.checks.record("every task completed",
                         last.tasks_completed == scenario->params.tasks);
    if (options.trace && pass % 2 == 1) {
      result.checks.record("traced digest equals untraced digest",
                           last.digest == untraced_digest);
    } else {
      untraced_digest = last.digest;
    }
    if (pass == 0) first_digest = last.digest;
  };

  warm_up(hooks);
  generate_times.clear();
  const std::vector<PassTiming> passes =
      timed_passes(options.seconds, options.trace, hooks);
  const double peak_rss = peak_rss_mib();
  result.units = total_units(passes);

  // The production kernel must reproduce the frozen reference kernel's
  // digest; checked once per run, outside the timed window.
  scenario.reset();
  bool reference_ok = false;
  try {
    des::ScaleScenario reference =
        des::generate_scale_scenario(pass_params(options, 0));
    const des::ScaleResult expected =
        des::run_scale_scenario_reference(reference);
    const std::uint64_t expected_digest =
        options.wrong_digest ? expected.digest ^ 1 : expected.digest;
    reference_ok = expected_digest == first_digest &&
                   expected.tasks_completed == reference.params.tasks;
  } catch (const std::exception& e) {
    result.report.push_back(std::string("reference run threw: ") + e.what());
  }
  result.checks.record("digest equals run_scale_scenario_reference",
                       reference_ok);

  add_end_to_end(result, passes, median(generate_times), peak_rss);
  if (options.trace) {
    add_trace_overhead(result, passes);
    const SpanTable table(tracer);
    const double run_s = table.median_ns("des.run_scale_scenario") / 1e9;
    auto& v = result.values;
    v["des.run_s"] = run_s;
    v["des.events_per_s"] =
        run_s > 0.0 ? table.median_sample("des.events") / run_s : 0.0;
    v["des.pending_peak"] = table.median_sample("des.pending_peak");
    v["des.generate_s"] =
        table.median_ns("des.generate_scale_scenario") / 1e9;
    add_attribution(result, table.total_ns("des.pass"),
                    {{"des.run_scale_scenario",
                      table.total_ns("des.run_scale_scenario")}});
    const std::string path = options.out_dir + "/trace-grid_scale.json";
    tracer.write_chrome_trace(path, 1000);
    result.report.push_back("spans written to " + path);
  }
  return result;
}

}  // namespace perfbench
