#include "sim/staging.hpp"

#include "common/error.hpp"

namespace gridtrust::sim {

std::vector<double> draw_input_sizes(std::size_t requests, double min_mb,
                                     double max_mb, Rng& rng) {
  GT_REQUIRE(requests > 0, "need at least one request");
  GT_REQUIRE(min_mb >= 0.0 && min_mb <= max_mb,
             "input size range must satisfy 0 <= min <= max");
  std::vector<double> sizes;
  sizes.reserve(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    sizes.push_back(rng.uniform(min_mb, max_mb));
  }
  return sizes;
}

StagingCosts compute_staging_costs(const grid::GridSystem& grid,
                                   const std::vector<grid::Request>& requests,
                                   const std::vector<double>& input_mb,
                                   const sched::TrustCostMatrix& tc,
                                   const net::TransferModel& wan) {
  GT_REQUIRE(!requests.empty(), "need at least one request");
  GT_REQUIRE(input_mb.size() == requests.size(),
             "need one input size per request");
  const std::size_t machines = grid.machines().size();
  GT_REQUIRE(tc.rows() == requests.size() && tc.cols() == machines,
             "trust-cost matrix does not match the instance");

  StagingCosts out{sched::CostMatrix(requests.size(), machines, 0.0),
                   sched::CostMatrix(requests.size(), machines, 0.0)};
  for (std::size_t r = 0; r < requests.size(); ++r) {
    GT_REQUIRE(input_mb[r] >= 0.0, "input sizes must be non-negative");
    if (input_mb[r] == 0.0) continue;
    const grid::ClientDomainId cd = requests[r].client_domain;
    const double rcp_s =
        wan.transfer_time_s(Megabytes(input_mb[r]), net::Protocol::kRcp);
    const double scp_s =
        wan.transfer_time_s(Megabytes(input_mb[r]), net::Protocol::kScp);
    for (std::size_t m = 0; m < machines; ++m) {
      const grid::ResourceDomainId rd = grid.domain_of_machine(m);
      // Local staging: the machine's RD and the client's CD project from
      // the same Grid domain.
      const bool local =
          grid.resource_domain(rd).owner == grid.client_domain(cd).owner;
      if (local) continue;
      out.trust_adaptive.at(r, m) = tc.get(r, m) == 0 ? rcp_s : scp_s;
      out.conservative.at(r, m) = scp_s;
    }
  }
  return out;
}

void attach_staging(sched::SchedulingProblem& problem,
                    const StagingCosts& staging) {
  const bool aware =
      problem.policy().decision == sched::CostModel::kTrustCost;
  // Trust-aware deployments both *see* and *pay* the adaptive costs; every
  // other posture pays the conservative (encrypt-everything) costs and its
  // mapper stays oblivious, mirroring how it treats the ESC.
  sched::CostMatrix decision =
      aware ? staging.trust_adaptive
            : sched::CostMatrix(staging.conservative.rows(),
                                staging.conservative.cols(), 0.0);
  sched::CostMatrix actual =
      aware ? staging.trust_adaptive : staging.conservative;
  problem.set_extra_costs(std::move(decision), std::move(actual));
}

obs::RunReport run_staged_paired(const Scenario& scenario, double min_mb,
                                 double max_mb, double wan_mbps,
                                 std::uint64_t rep_seed) {
  GT_REQUIRE(wan_mbps == 100.0 || wan_mbps == 1000.0,
             "staging WAN must be 100 or 1000 Mbps");
  const net::LinkProfile link = wan_mbps == 1000.0
                                    ? net::gigabit_ethernet_link()
                                    : net::fast_ethernet_link();
  const net::TransferModel wan(net::piii_866_host(link), link);

  Rng rng(rep_seed);
  const Instance instance =
      draw_instance(scenario, sched::trust_unaware_policy(), rng);
  const std::vector<double> inputs =
      draw_input_sizes(instance.requests.size(), min_mb, max_mb, rng);
  // Trust costs for the staging decision mirror the instance's.
  const sched::SecurityCostModel model(scenario.security);
  const sched::TrustCostMatrix tc = sched::compute_trust_costs(
      instance.grid, instance.requests, instance.table, model);
  const StagingCosts staging = compute_staging_costs(
      instance.grid, instance.requests, inputs, tc, wan);

  const sched::SchedulingProblem aware_problem =
      instance.problem.with_policy(sched::trust_aware_policy());
  sched::SchedulingProblem staged_unaware = instance.problem;
  attach_staging(staged_unaware, staging);
  sched::SchedulingProblem staged_aware = aware_problem;
  attach_staging(staged_aware, staging);

  const SimulationResult unaware = run_trms(staged_unaware, scenario.rms);
  const SimulationResult aware = run_trms(staged_aware, scenario.rms);
  const double plain_unaware =
      run_trms(instance.problem, scenario.rms).makespan;
  const double plain_aware = run_trms(aware_problem, scenario.rms).makespan;
  obs::RunReport report;
  report_arm(report, "unaware", unaware);
  report_arm(report, "aware", aware);
  report.set("makespan_diff", unaware.makespan - aware.makespan);
  report.set("plain.unaware.makespan", plain_unaware);
  report.set("plain.aware.makespan", plain_aware);
  report.set("plain.makespan_diff", plain_unaware - plain_aware);
  return report;
}

}  // namespace gridtrust::sim
