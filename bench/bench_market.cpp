// Grid economy tournament: price models x mechanisms x trust arms, with
// and without a price-manipulating cartel.
//
// The sweep lives in the lab catalog as `market_tournament`; this binary
// runs it on the sweep engine — same numbers as `gridtrust_lab run
// market_tournament` — and applies two acceptance properties to the
// manifest:
//
//   1. Mispricing: for the posted-price mechanisms, the trust-unaware arm
//      (which decides on bare EEC but is metered blanket security) must
//      overrun budgets strictly more often than the trust-aware arm.
//   2. Cartel containment: under trust-weighted pricing, the steady-state
//      adversary price premium with the cartel active must stay below the
//      honest-market premium of 1 — detection has to claw back the rate
//      advantage the ballot-stuffing bought.
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("bench_market",
                "Grid economy tournament: pricing x mechanism x trust arm "
                "(lab spec `market_tournament`)");
  bench::add_lab_flags(cli);
  cli.parse(argc, argv);

  const lab::SweepRun run = bench::run_catalog_spec(cli, "market_tournament");

  // (pricing, mechanism, aware, cartel) -> metric means.
  using Key = std::tuple<std::string, std::string, bool, bool>;
  std::map<Key, double> overrun_rate;
  std::map<Key, double> adversary_premium;
  for (const lab::ManifestCell& cell : run.manifest.cells) {
    std::string pricing;
    std::string mechanism;
    bool aware = false;
    bool cartel = false;
    for (const auto& [key, value] : cell.params) {
      if (key == "pricing") pricing = value.text();
      if (key == "mechanism") mechanism = value.text();
      if (key == "trust_aware") aware = value.number() != 0.0;
      if (key == "cartel") cartel = value.number() != 0.0;
    }
    for (const auto& [name, metric] : cell.metrics) {
      if (name == "budget_overrun_rate") {
        overrun_rate[{pricing, mechanism, aware, cartel}] = metric.mean;
      }
      if (name == "steady_adversary_premium") {
        adversary_premium[{pricing, mechanism, aware, cartel}] = metric.mean;
      }
    }
  }

  bool pass = true;
  std::vector<std::string> violations;
  for (const auto& [key, unaware_rate] : overrun_rate) {
    const auto& [pricing, mechanism, aware, cartel] = key;
    if (aware || mechanism == "auction") continue;  // auction contracts
    const double aware_rate =
        overrun_rate[{pricing, mechanism, true, cartel}];
    if (!(aware_rate < unaware_rate)) {
      pass = false;
      violations.push_back(pricing + "/" + mechanism +
                           (cartel ? " (cartel)" : "") +
                           ": aware overrun rate " +
                           format_percent(aware_rate * 100.0) + " !< unaware " +
                           format_percent(unaware_rate * 100.0));
    }
  }
  for (const auto& [key, premium] : adversary_premium) {
    const auto& [pricing, mechanism, aware, cartel] = key;
    if (pricing != "trust" || !cartel) continue;
    if (!(premium < 1.0)) {
      pass = false;
      violations.push_back("trust/" + mechanism + (aware ? " aware" : "") +
                           ": cartel steady premium " +
                           format_grouped(premium, 3) +
                           " !< 1 (manipulation not clawed back)");
    }
  }

  std::cout << "\nreading: posted-price buyers carry the metering risk, so "
               "a decision model blind to trust overruns budgets; auctions "
               "contract the clearing price up front and shift that risk to "
               "sellers.  The cartel's ballot-stuffing buys it a trust "
               "premium only until the recommender factor discounts the "
               "forged evidence and its rates fall below honest parity.\n";
  if (pass) {
    std::cout << "market check: PASS (aware overruns < unaware on posted "
                 "mechanisms; cartel premium clawed back under trust "
                 "pricing)\n";
    return 0;
  }
  std::cout << "market check: FAIL\n";
  for (const std::string& v : violations) std::cout << "  " << v << "\n";
  return 1;
}
