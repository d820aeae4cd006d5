// replay_tool: run any saved workload trace against any saved trust table.
//
// The library's persistence formats make experiments portable: a trace file
// (workload/trace.hpp) pins the requests and the EEC matrix; a table file
// (trust/serialization.hpp) pins the trust relationships.  This tool loads
// both, schedules with a chosen heuristic/policy, and reports metrics, a
// Gantt chart, and optionally CSV.
//
// With no input files it generates a demo instance, saves it as
// replay_demo.trace and replay_demo.table in the working directory, and
// replays it — demonstrating the full round trip.  Bad input ends the tool
// with "replay_tool: <reason>" on stderr and exit status 2.
//
//   ./replay_tool --trace my.trace --table my.table --heuristic sufferage
//                 --mode batch --policy aware --gantt
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sched/gantt.hpp"
#include "sched/problem.hpp"
#include "sim/trm_simulation.hpp"
#include "trust/serialization.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"
#include "workload/trace.hpp"

namespace {

using namespace gridtrust;

/// Writes a demo trace + table pair and returns their paths.
std::pair<std::string, std::string> write_demo(std::uint64_t seed) {
  Rng rng(seed);
  const grid::GridSystem grid =
      grid::make_random_grid(grid::RandomGridParams{}, rng);
  workload::RequestGenParams params;
  params.arrival_rate = 1.0;
  const auto requests = workload::generate_requests(grid, 30, params, rng);
  const auto eec = workload::generate_eec(
      30, grid.machines().size(), workload::inconsistent_lolo(), rng);
  const trust::TrustLevelTable table = workload::random_trust_table(grid, rng);

  const std::string trace_path = "replay_demo.trace";
  const std::string table_path = "replay_demo.table";
  std::ofstream trace_out(trace_path);
  workload::save_trace(requests, eec, trace_out);
  std::ofstream table_out(table_path);
  trust::save_table(table, table_out);
  std::cout << "wrote demo files: " << trace_path << ", " << table_path
            << "\n\n";
  return {trace_path, table_path};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  GT_REQUIRE(in.good(), "cannot open file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int replay(int argc, char** argv) {
  CliParser cli("replay_tool",
                "Replay a saved workload trace against a saved trust table");
  cli.add_string("trace", "", "trace file (empty: generate a demo)");
  cli.add_string("table", "", "trust-table file (empty: generate a demo)");
  cli.add_string("heuristic", "mct", "scheduling heuristic");
  cli.add_string("mode", "immediate", "immediate or batch");
  cli.add_string("policy", "aware", "aware, unaware, or both");
  cli.add_double("batch-interval", 30.0, "meta-request interval (batch mode)");
  cli.add_uint("seed", 3, "seed for the demo instance");
  cli.add_flag("gantt", "print an ASCII Gantt chart of the schedule");
  cli.add_flag("csv", "print per-request results as CSV");
  cli.parse(argc, argv);

  std::string trace_path = cli.get_string("trace");
  std::string table_path = cli.get_string("table");
  if (trace_path.empty() || table_path.empty()) {
    const auto [demo_trace, demo_table] =
        write_demo(cli.get_uint("seed"));
    if (trace_path.empty()) trace_path = demo_trace;
    if (table_path.empty()) table_path = demo_table;
  }

  const workload::Trace trace =
      workload::trace_from_string(slurp(trace_path));
  const trust::TrustLevelTable table =
      trust::table_from_string(slurp(table_path));

  // The trace stores client-domain indices; the table must cover them.
  std::size_t max_cd = 0;
  std::size_t max_act = 0;
  for (const grid::Request& r : trace.requests) {
    max_cd = std::max(max_cd, r.client_domain);
    for (const auto act : r.activities) max_act = std::max(max_act, act);
  }
  GT_REQUIRE(max_cd < table.client_domains(),
             "trace references client domains missing from the table");
  GT_REQUIRE(max_act < table.activities(),
             "trace references activities missing from the table");

  // Machines map onto the table's resource domains round-robin (the trace
  // does not pin a topology; for a pinned topology keep grid + table
  // together).
  const std::size_t machines = trace.eec.cols();
  const sched::SecurityCostModel model;
  sched::TrustCostMatrix tc(trace.requests.size(), machines, 0);
  for (std::size_t r = 0; r < trace.requests.size(); ++r) {
    const grid::Request& req = trace.requests[r];
    for (std::size_t m = 0; m < machines; ++m) {
      const std::size_t rd = m % table.resource_domains();
      const trust::TrustLevel otl = table.offered_trust_level(
          req.client_domain, rd,
          std::span<const std::size_t>(req.activities));
      tc.at(r, m) = model.trust_cost(req.effective_rtl(), otl);
    }
  }
  std::vector<double> arrivals;
  for (const auto& r : trace.requests) arrivals.push_back(r.arrival_time);

  sim::TrmsConfig rms;
  rms.heuristic = cli.get_string("heuristic");
  rms.batch_interval = cli.get_double("batch-interval");
  const std::string mode = cli.get_string("mode");
  GT_REQUIRE(mode == "immediate" || mode == "batch",
             "--mode must be immediate or batch");
  rms.mode = mode == "batch" ? sim::SchedulingMode::kBatch
                             : sim::SchedulingMode::kImmediate;

  const std::string policy_arg = cli.get_string("policy");
  std::vector<sched::SchedulingPolicy> policies;
  if (policy_arg == "aware" || policy_arg == "both") {
    policies.push_back(sched::trust_aware_policy());
  }
  if (policy_arg == "unaware" || policy_arg == "both") {
    policies.push_back(sched::trust_unaware_policy());
  }
  GT_REQUIRE(!policies.empty(), "--policy must be aware, unaware, or both");

  for (const sched::SchedulingPolicy& policy : policies) {
    const sched::SchedulingProblem problem(trace.eec, tc, policy, model,
                                           arrivals);
    const sim::SimulationResult result = sim::run_trms(problem, rms);
    std::cout << policy.name << " " << rms.heuristic << " (" << mode
              << "): makespan " << format_grouped(result.makespan, 2)
              << " s, utilization " << format_percent(result.utilization_pct)
              << ", flow p50/p95 " << format_grouped(result.flow_time_p50, 1)
              << "/" << format_grouped(result.flow_time_p95, 1) << " s\n";
    if (cli.get_flag("gantt")) {
      std::cout << sched::render_gantt(problem, result.schedule) << "\n";
    }
    if (cli.get_flag("csv")) {
      std::cout << "request,machine,start,completion\n";
      for (std::size_t r = 0; r < trace.requests.size(); ++r) {
        std::cout << r << "," << result.schedule.machine_of[r] << ","
                  << result.schedule.start[r] << ","
                  << result.schedule.completion[r] << "\n";
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return replay(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "replay_tool: " << e.what() << "\n";
    return 2;
  }
}
