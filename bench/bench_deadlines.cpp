// Extension bench: QoS deadlines under trust-aware vs trust-unaware
// scheduling.  The paper frames security and QoS as the two concerns an RMS
// must integrate; this bench shows the security-overhead reduction turning
// directly into met deadlines: the same requests, the same deadlines, only
// the policy differs.
//
// The sweep itself (slack band x paired policies on common random numbers)
// lives in the lab catalog as `deadlines`; this binary runs it on the sweep
// engine — same numbers as `gridtrust_lab run deadlines` — and applies the
// acceptance property to the manifest: the trust-aware arm must not miss
// more deadlines than the unaware arm at any slack band.
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("bench_deadlines",
                "Deadline miss rates, trust-aware vs unaware (lab spec "
                "`deadlines`)");
  bench::add_lab_flags(cli);
  cli.parse(argc, argv);

  const lab::SweepRun run = bench::run_catalog_spec(cli, "deadlines");

  bool pass = true;
  std::vector<std::string> violations;
  for (const lab::ManifestCell& cell : run.manifest.cells) {
    double slack_lo = 0.0;
    for (const auto& [key, value] : cell.params) {
      if (key == "slack_lo") slack_lo = value.number();
    }
    double avoided = 0.0;
    for (const auto& [name, metric] : cell.metrics) {
      if (name == "misses_avoided_pct") avoided = metric.mean;
    }
    if (avoided < 0.0) {
      pass = false;
      violations.push_back(
          "slack [" + format_grouped(slack_lo, 0) + ", " +
          format_grouped(2.0 * slack_lo, 0) + "]: trust-aware misses " +
          format_percent(-avoided) + " more deadlines than unaware");
    }
  }

  std::cout << "\nreading: the makespan improvement compounds into the QoS "
               "dimension — under saturation, queueing dominates completion "
               "times, so every request finishing earlier under the "
               "trust-aware policy converts into met deadlines at every "
               "slack level.\n";
  if (pass) {
    std::cout << "deadline check: PASS (trust-aware never misses more than "
                 "unaware at any slack band)\n";
    return 0;
  }
  std::cout << "deadline check: FAIL\n";
  for (const std::string& v : violations) std::cout << "  " << v << "\n";
  return 1;
}
