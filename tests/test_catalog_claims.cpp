// The acceptance claims of the catalog's heuristic-suite, adversarial and
// economic studies, checked on the manifests `gridtrust_lab run <spec>`
// records at the spec's defaults.  Each assertion names the cell it failed
// in.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/manifest.hpp"

namespace gridtrust::lab {
namespace {

Manifest run_default(const std::string& name) {
  const SweepSpec* spec = find_spec(name);
  EXPECT_NE(spec, nullptr) << name;
  if (spec == nullptr) return {};
  return run_sweep(*spec).manifest;
}

/// The values of axis `axis` over the manifest's cells, in first-seen order.
std::vector<ParamValue> axis_values(const Manifest& manifest,
                                    const std::string& axis) {
  std::vector<ParamValue> out;
  for (const ManifestCell& cell : manifest.cells) {
    for (const auto& [key, value] : cell.params) {
      if (key != axis) continue;
      bool seen = false;
      for (const ParamValue& v : out) seen = seen || v == value;
      if (!seen) out.push_back(value);
    }
  }
  return out;
}

/// The mean of `metric` in the one cell whose parameters equal `params`
/// (listed in axis order); fails the test when there is no such cell.
double mean_at(const Manifest& manifest,
               const std::vector<std::pair<std::string, ParamValue>>& params,
               const std::string& metric) {
  for (const ManifestCell& cell : manifest.cells) {
    if (cell.params != params) continue;
    for (const auto& [name, aggregate] : cell.metrics) {
      if (name == metric) return aggregate.mean;
    }
  }
  ADD_FAILURE() << manifest.spec << " has no " << metric << " cell";
  return 0.0;
}

std::string label(const std::vector<std::pair<std::string, ParamValue>>& p) {
  std::string out;
  for (const auto& [key, value] : p) {
    if (!out.empty()) out += ' ';
    out += key + "=" + value.canonical();
  }
  return out;
}

TEST(CatalogClaims, AllHeuristicsAwareWinsSignificantlyInEveryCell) {
  const Manifest manifest = run_default("all_heuristics");
  // 4 heterogeneity classes x the 9 heuristics of [10].
  ASSERT_EQ(manifest.cells.size(), 36u);
  for (const ManifestCell& cell : manifest.cells) {
    EXPECT_EQ(mean_at(manifest, cell.params, "significant"), 1.0)
        << label(cell.params) << ": the aware win must be significant";
    EXPECT_GT(mean_at(manifest, cell.params, "improvement_pct"), 0.0)
        << label(cell.params)
        << ": the aware arm must improve on the unaware one";
  }
}

TEST(CatalogClaims, ChaosRobustnessAwareDegradesStrictlyLess) {
  const Manifest manifest = run_default("chaos_robustness");
  const auto steady_tc = [&](const ParamValue& heuristic,
                             const ParamValue& pct, int aware) {
    return mean_at(manifest,
                   {{"heuristic", heuristic},
                    {"malicious_pct", pct},
                    {"trust_aware", aware}},
                   "steady_true_trust_cost");
  };
  for (const ParamValue& heuristic : axis_values(manifest, "heuristic")) {
    for (const ParamValue& pct : axis_values(manifest, "malicious_pct")) {
      if (pct.number() == 0.0) continue;
      const double unaware = steady_tc(heuristic, pct, 0) -
                             steady_tc(heuristic, ParamValue(0), 0);
      const double aware = steady_tc(heuristic, pct, 1) -
                           steady_tc(heuristic, ParamValue(0), 1);
      EXPECT_LT(aware, unaware)
          << "heuristic=" << heuristic.text()
          << " malicious_pct=" << pct.canonical()
          << ": the aware arm's steady true trust cost must degrade "
             "strictly less than the unaware arm's";
    }
  }
}

TEST(CatalogClaims, DeadlinesAwareNeverMissesMore) {
  const Manifest manifest = run_default("deadlines");
  ASSERT_FALSE(manifest.cells.empty());
  for (const ManifestCell& cell : manifest.cells) {
    EXPECT_GE(mean_at(manifest, cell.params, "misses_avoided_pct"), 0.0)
        << label(cell.params)
        << ": the aware arm misses more deadlines than the unaware arm";
  }
}

TEST(CatalogClaims, MarketAwareOverrunsLessAndCartelPremiumIsClawedBack) {
  const Manifest manifest = run_default("market_tournament");
  for (const ParamValue& pricing : axis_values(manifest, "pricing")) {
    for (const ParamValue& mechanism : axis_values(manifest, "mechanism")) {
      for (const ParamValue& cartel : axis_values(manifest, "cartel")) {
        const auto cell = [&](int aware) {
          return std::vector<std::pair<std::string, ParamValue>>{
              {"pricing", pricing},
              {"mechanism", mechanism},
              {"trust_aware", aware},
              {"cartel", cartel}};
        };
        // Posted-price buyers carry the metering risk; an auction fixes
        // the price up front, so only the posted mechanisms compare.
        if (mechanism.text() != "auction") {
          EXPECT_LT(mean_at(manifest, cell(1), "budget_overrun_rate"),
                    mean_at(manifest, cell(0), "budget_overrun_rate"))
              << label(cell(1))
              << ": the aware overrun rate must be below the unaware one";
        }
        if (pricing.text() != "trust" || cartel.number() == 0.0) continue;
        for (const int aware : {0, 1}) {
          EXPECT_LT(
              mean_at(manifest, cell(aware), "steady_adversary_premium"), 1.0)
              << label(cell(aware))
              << ": the cartel's steady premium must fall below honest "
                 "parity";
        }
      }
    }
  }
}

}  // namespace
}  // namespace gridtrust::lab
