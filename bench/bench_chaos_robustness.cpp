// Trust-robustness sweep: how much does each scheduling arm degrade as the
// Grid turns hostile?
//
// The sweep itself (heuristic x malicious fraction x trust arm, paired
// chaos campaigns priced against each domain's *latent* conduct) lives in
// the lab catalog as `chaos_robustness`; this binary runs it on the sweep
// engine and then applies the acceptance property to the manifest: the
// trust-aware arm must degrade strictly less than the trust-unaware arm at
// every non-zero fraction, for every heuristic — otherwise the trust
// machinery is not buying robustness and the bench exits non-zero.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("bench_chaos_robustness",
                "Trust-aware vs trust-unaware degradation under a sweep of "
                "malicious-machine fractions (lab spec `chaos_robustness`)");
  bench::add_lab_flags(cli);
  cli.parse(argc, argv);

  const lab::SweepRun run = bench::run_catalog_spec(cli, "chaos_robustness");

  // Index the manifest: (heuristic, malicious %, aware arm) -> steady true
  // trust cost, then check the acceptance inequality per heuristic and
  // fraction.
  std::map<std::tuple<std::string, double, bool>, double> true_tc;
  std::vector<double> fractions;
  std::vector<std::string> heuristics;
  for (const lab::ManifestCell& cell : run.manifest.cells) {
    std::string heuristic;
    double pct = 0.0;
    bool aware = false;
    for (const auto& [key, value] : cell.params) {
      if (key == "heuristic") heuristic = value.text();
      if (key == "malicious_pct") pct = value.number();
      if (key == "trust_aware") aware = value.number() != 0.0;
    }
    for (const auto& [name, metric] : cell.metrics) {
      if (name == "steady_true_trust_cost") {
        true_tc[{heuristic, pct, aware}] = metric.mean;
      }
    }
    if (std::find(fractions.begin(), fractions.end(), pct) == fractions.end())
      fractions.push_back(pct);
    if (std::find(heuristics.begin(), heuristics.end(), heuristic) ==
        heuristics.end())
      heuristics.push_back(heuristic);
  }

  bool pass = true;
  std::vector<std::string> violations;
  for (const std::string& heuristic : heuristics) {
    for (const double pct : fractions) {
      if (pct == 0.0) continue;
      const double unaware_deg = true_tc[{heuristic, pct, false}] -
                                 true_tc[{heuristic, 0.0, false}];
      const double aware_deg = true_tc[{heuristic, pct, true}] -
                               true_tc[{heuristic, 0.0, true}];
      if (!(aware_deg < unaware_deg)) {
        pass = false;
        violations.push_back(heuristic + " @ " + format_grouped(pct, 0) +
                             " %: aware degradation " +
                             format_grouped(aware_deg, 3) + " !< unaware " +
                             format_grouped(unaware_deg, 3));
      }
    }
  }

  std::cout << "\nreading: the trust-unaware arm keeps placing work on "
               "machines whose domains misbehave, so its true trust cost "
               "climbs with the malicious fraction; the trust-aware arm "
               "learns the adversaries (detection metric) and routes around "
               "them, degrading strictly less at every fraction.\n";
  if (pass) {
    std::cout << "robustness check: PASS (trust-aware degrades strictly "
                 "less than trust-unaware at every non-zero fraction)\n";
    return 0;
  }
  std::cout << "robustness check: FAIL\n";
  for (const std::string& v : violations) std::cout << "  " << v << "\n";
  return 1;
}
