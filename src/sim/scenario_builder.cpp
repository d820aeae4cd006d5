#include "sim/scenario_builder.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "trust/reputation_registry.hpp"
#include "workload/heterogeneity.hpp"

namespace gridtrust::sim {

namespace {

bool known_name(const std::vector<std::string>& names,
                const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += "/";
    out += n;
  }
  return out;
}

}  // namespace

ScenarioBuilder& ScenarioBuilder::tasks(std::size_t count) {
  scenario_.tasks = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::machines(std::size_t count) {
  scenario_.grid.machines = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::client_domains(std::size_t lo,
                                                 std::size_t hi) {
  scenario_.grid.min_client_domains = lo;
  scenario_.grid.max_client_domains = hi;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::resource_domains(std::size_t lo,
                                                   std::size_t hi) {
  scenario_.grid.min_resource_domains = lo;
  scenario_.grid.max_resource_domains = hi;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::heuristic(std::string name) {
  scenario_.rms.heuristic = std::move(name);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::immediate() {
  scenario_.rms.mode = SchedulingMode::kImmediate;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::batch(double interval) {
  scenario_.rms.mode = SchedulingMode::kBatch;
  scenario_.rms.batch_interval = interval;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::consistent() {
  scenario_.heterogeneity = workload::consistent_lolo();
  return *this;
}

ScenarioBuilder& ScenarioBuilder::inconsistent() {
  scenario_.heterogeneity = workload::inconsistent_lolo();
  return *this;
}

ScenarioBuilder& ScenarioBuilder::heterogeneity(
    const workload::HeterogeneityParams& params) {
  scenario_.heterogeneity = params;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::arrival_rate(double per_second) {
  scenario_.requests.arrival_rate = per_second;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::tc_weight_pct(double pct) {
  scenario_.security.tc_weight_pct = pct;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::blanket_pct(double pct) {
  scenario_.security.blanket_pct = pct;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::forced_f(bool on) {
  scenario_.security.table1_forced_f = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::table_correlation(
    workload::TableCorrelation correlation) {
  scenario_.table_correlation = correlation;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_adversaries(
    const std::vector<chaos::AdversarySpec>& adversaries) {
  scenario_.chaos.adversaries.insert(scenario_.chaos.adversaries.end(),
                                     adversaries.begin(), adversaries.end());
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_faults(
    const std::vector<chaos::FaultSpec>& faults) {
  scenario_.chaos.faults.insert(scenario_.chaos.faults.end(), faults.begin(),
                                faults.end());
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_reputation_backend(
    std::string name, std::map<std::string, double> params) {
  scenario_.reputation.name = std::move(name);
  scenario_.reputation.params = std::move(params);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_economy(econ::EconomyConfig config) {
  scenario_.economy = std::move(config);
  scenario_.economy.enabled = true;
  return *this;
}

Scenario ScenarioBuilder::build() const {
  const Scenario& s = scenario_;
  GT_REQUIRE(s.tasks >= 1, "tasks: need at least one request");
  GT_REQUIRE(s.grid.machines >= 1, "machines: need at least one machine");
  GT_REQUIRE(s.grid.min_client_domains >= 1 &&
                 s.grid.min_client_domains <= s.grid.max_client_domains,
             "client_domains: need 1 <= lo <= hi");
  GT_REQUIRE(s.grid.min_resource_domains >= 1 &&
                 s.grid.min_resource_domains <= s.grid.max_resource_domains,
             "resource_domains: need 1 <= lo <= hi");
  GT_REQUIRE(s.requests.arrival_rate >= 0.0,
             "arrival_rate: must be non-negative (0 = all at time zero)");
  GT_REQUIRE(std::isfinite(s.security.tc_weight_pct) &&
                 s.security.tc_weight_pct >= 0.0,
             "tc_weight_pct: must be finite and non-negative");
  GT_REQUIRE(std::isfinite(s.security.blanket_pct) &&
                 s.security.blanket_pct >= 0.0,
             "blanket_pct: must be finite and non-negative");
  if (s.rms.mode == SchedulingMode::kBatch) {
    GT_REQUIRE(s.rms.batch_interval > 0.0,
               "batch: formation interval must be positive");
    GT_REQUIRE(known_name(sched::batch_heuristic_names(), s.rms.heuristic),
               "heuristic: '" + s.rms.heuristic +
                   "' is not a batch heuristic (expected " +
                   join(sched::batch_heuristic_names()) + ")");
  } else {
    GT_REQUIRE(
        known_name(sched::immediate_heuristic_names(), s.rms.heuristic),
        "heuristic: '" + s.rms.heuristic +
            "' is not an immediate heuristic (expected " +
            join(sched::immediate_heuristic_names()) + ")");
  }
  // Parameter-range validation for the chaos config; domain indices are
  // checked against the drawn grid by the consumers (BehaviorEngine,
  // FaultInjector, the campaign round loop).
  s.chaos.validate();
  s.economy.validate();
  GT_REQUIRE(trust::reputation_backend_exists(s.reputation.name),
             "reputation: unknown backend '" + s.reputation.name + "'");
  return scenario_;
}

}  // namespace gridtrust::sim
