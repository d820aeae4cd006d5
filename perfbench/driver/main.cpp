// Benchmark driver: runs one workload for a fixed time, checks its outputs,
// and prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload <paper_tables|campaigns_journaled|grid_scale>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>] [--plan] [--wrong-digest]
//
// Run it from the repository root (it reads baselines/table4.json);
// perfbench/run.py builds it and does so.  See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace perfbench;

struct Args {
  Options options;
  bool plan = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  Options& o = args.options;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      GT_REQUIRE(i + 1 < argc, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string trace = value();
      GT_REQUIRE(trace == "0" || trace == "1", "--trace takes 0 or 1");
      o.trace = trace == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--plan") {
      args.plan = true;
    } else if (arg == "--wrong-digest") {
      o.wrong_digest = true;
    } else {
      GT_REQUIRE(false, "unknown argument " + arg);
    }
  }
  GT_REQUIRE(is_lab_workload(o.workload) || o.workload == "grid_scale",
             "unknown workload \"" + o.workload + "\"");
  GT_REQUIRE(have_seed, "--seed is required");
  GT_REQUIRE(args.plan || have_seconds, "--seconds is required");
  GT_REQUIRE(args.plan || (o.seconds > 0.0 && o.seconds <= 120.0),
             "--seconds must be in (0, 120]");
  return args;
}

std::string number(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g",
                std::isfinite(value) ? value : 0.0);
  return text;
}

/// The result line.  A metric a workload does not exercise (a campaign
/// layer on paper_tables) reads 0.
std::string result_json(const Result& result, bool trace) {
  const std::uint64_t attempted = result.units + result.checks.evaluated();
  const std::uint64_t failed =
      std::min(attempted, result.checks.failed_ops());
  std::string out =
      std::string("{\"correct\": ") +
      (result.checks.all_ok() && failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def :
       trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = result.values.find(def.name);
    out += std::string(first ? "" : ", ") + "\"" + def.name +
           "\": {\"value\": " +
           number(it == result.values.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Options& options = args.options;
    if (args.plan) {
      std::cout << (options.workload == "grid_scale" ? grid_plan(options)
                                                     : lab_plan(options))
                << std::flush;
      return 0;
    }
    std::filesystem::create_directories(options.out_dir);
    // Metrics collection on, as under `gridtrust_lab run --metrics-out`:
    // labelled DES events then take their timed path.
    gridtrust::obs::MetricsRegistry registry;
    gridtrust::obs::install(&registry);
    const Result result = options.workload == "grid_scale"
                              ? run_grid(options)
                              : run_lab(options);
    gridtrust::obs::install(nullptr);
    for (const std::string& line : result.report) std::cout << line << '\n';
    for (const std::string& line : result.checks.lines()) {
      std::cout << line << '\n';
    }
    std::cout << result_json(result, options.trace) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << std::endl;
    return 1;
  }
}
