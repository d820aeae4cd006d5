// Microbenchmarks (google-benchmark): market-clearing throughput of the
// econ mechanisms and end-to-end market-campaign latency.  Not a paper
// table — engineering data for users embedding the market layer; the CI
// perf script snapshots the JSON output as BENCH_econ.json.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "econ/market.hpp"
#include "econ/price_model.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario_builder.hpp"

namespace {

using namespace gridtrust;

/// A priced instance with drawn QoS terms, sized (tasks x machines).
struct Priced {
  sched::SchedulingProblem problem;
  std::vector<grid::Request> requests;
  std::vector<double> rates;
};

Priced make_priced(std::size_t tasks, std::size_t machines,
                   std::uint64_t seed) {
  Rng rng(seed);
  sched::CostMatrix eec(tasks, machines);
  sched::TrustCostMatrix tc(tasks, machines);
  std::vector<double> arrivals(tasks);
  for (std::size_t r = 0; r < tasks; ++r) {
    arrivals[r] = rng.uniform(0.0, 60.0);
    for (std::size_t m = 0; m < machines; ++m) {
      eec.at(r, m) = rng.uniform(1.0, 100.0);
      tc.at(r, m) = static_cast<int>(rng.uniform_int(0, 6));
    }
  }
  std::vector<grid::Request> requests(tasks);
  for (std::size_t r = 0; r < tasks; ++r) {
    requests[r].id = r;
    requests[r].arrival_time = arrivals[r];
  }
  econ::EconomyConfig economy;
  economy.enabled = true;
  Priced out{sched::SchedulingProblem(std::move(eec), std::move(tc),
                                      sched::trust_aware_policy(),
                                      sched::SecurityCostModel{},
                                      std::move(arrivals)),
             std::move(requests),
             econ::draw_base_rates(economy, machines, rng)};
  sched::CostMatrix costs(tasks, machines);
  for (std::size_t r = 0; r < tasks; ++r) {
    for (std::size_t m = 0; m < machines; ++m) {
      costs.at(r, m) = out.problem.decision_cost(r, m);
    }
  }
  econ::draw_qos_terms(out.requests, costs, out.rates, economy, rng);
  return out;
}

void BM_ClearMarket(benchmark::State& state, const std::string& mechanism) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Priced priced = make_priced(tasks, 16, 1);
  const econ::MarketProblem market(priced.problem, priced.requests,
                                   priced.rates);
  const econ::MechanismKind kind = econ::mechanism_from_string(mechanism);
  for (auto _ : state) {
    benchmark::DoNotOptimize(econ::run_market(market, kind));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}

void BM_MarketCampaign(benchmark::State& state, const std::string& pricing) {
  econ::EconomyConfig economy;
  economy.pricing = pricing;
  const sim::Scenario scenario = sim::ScenarioBuilder()
                                     .machines(6)
                                     .resource_domains(6, 6)
                                     .client_domains(3, 3)
                                     .heuristic("mct")
                                     .inconsistent()
                                     .with_economy(economy)
                                     .build();
  sim::RoundConfig config;
  config.rounds = static_cast<std::size_t>(state.range(0));
  config.tasks_per_round = 30;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_market_campaign(scenario, config, seed++));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(config.rounds * config.tasks_per_round));
}

}  // namespace

BENCHMARK_CAPTURE(BM_ClearMarket, posted_cost, std::string("posted-cost"))
    ->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK_CAPTURE(BM_ClearMarket, posted_time, std::string("posted-time"))
    ->Arg(1000);
BENCHMARK_CAPTURE(BM_ClearMarket, auction, std::string("auction"))
    ->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK_CAPTURE(BM_MarketCampaign, trust, std::string("trust"))
    ->Arg(8)->Arg(16);
BENCHMARK_CAPTURE(BM_MarketCampaign, commodity, std::string("commodity"))
    ->Arg(8);

BENCHMARK_MAIN();
