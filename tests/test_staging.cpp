// Tests for data-staging-aware scheduling (sim/staging).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/experiment.hpp"
#include "sim/staging.hpp"

namespace gridtrust::sim {
namespace {

net::TransferModel wan() {
  const net::LinkProfile link = net::fast_ethernet_link();
  return net::TransferModel(net::piii_866_host(link), link);
}

/// A 2-GD grid: gd0 holds machine 0 and the only client domain used by the
/// requests; gd1 holds machine 1 (remote).
grid::GridSystem two_gd_grid() {
  grid::GridSystemBuilder builder(grid::ActivityCatalog::standard());
  const auto gd0 = builder.add_grid_domain("home");
  const auto gd1 = builder.add_grid_domain("remote");
  builder.add_machine(gd0, "m-local");
  builder.add_machine(gd1, "m-remote");
  return builder.build();
}

grid::Request request_with(trust::TrustLevel rtl) {
  grid::Request req;
  req.id = 0;
  req.client_domain = 0;  // belongs to gd0
  req.activities = {0};
  req.client_rtl = rtl;
  req.resource_rtl = rtl;
  return req;
}

TEST(Staging, LocalStagingIsFree) {
  const grid::GridSystem grid = two_gd_grid();
  const auto req = request_with(trust::TrustLevel::kA);
  sched::TrustCostMatrix tc(1, 2, 0);
  const StagingCosts costs =
      compute_staging_costs(grid, {req}, {100.0}, tc, wan());
  EXPECT_EQ(costs.trust_adaptive.get(0, 0), 0.0);  // same GD
  EXPECT_EQ(costs.conservative.get(0, 0), 0.0);
  EXPECT_GT(costs.trust_adaptive.get(0, 1), 0.0);  // WAN hop
}

TEST(Staging, TrustCostZeroUsesRcpOtherwiseScp) {
  const grid::GridSystem grid = two_gd_grid();
  const auto req = request_with(trust::TrustLevel::kA);
  const net::TransferModel model = wan();
  const double rcp = model.transfer_time_s(Megabytes(100), net::Protocol::kRcp);
  const double scp = model.transfer_time_s(Megabytes(100), net::Protocol::kScp);

  sched::TrustCostMatrix trusted(1, 2, 0);
  const StagingCosts a =
      compute_staging_costs(grid, {req}, {100.0}, trusted, model);
  EXPECT_NEAR(a.trust_adaptive.get(0, 1), rcp, 1e-9);
  EXPECT_NEAR(a.conservative.get(0, 1), scp, 1e-9);

  sched::TrustCostMatrix untrusted(1, 2, 3);
  const StagingCosts b =
      compute_staging_costs(grid, {req}, {100.0}, untrusted, model);
  EXPECT_NEAR(b.trust_adaptive.get(0, 1), scp, 1e-9);
}

TEST(Staging, ZeroInputStagesNothing) {
  const grid::GridSystem grid = two_gd_grid();
  const auto req = request_with(trust::TrustLevel::kC);
  sched::TrustCostMatrix tc(1, 2, 2);
  const StagingCosts costs =
      compute_staging_costs(grid, {req}, {0.0}, tc, wan());
  EXPECT_EQ(costs.trust_adaptive.get(0, 1), 0.0);
  EXPECT_EQ(costs.conservative.get(0, 1), 0.0);
}

TEST(Staging, AttachChangesCostsPerPolicyPosture) {
  const grid::GridSystem grid = two_gd_grid();
  const auto req = request_with(trust::TrustLevel::kA);
  sched::CostMatrix eec(1, 2, 50.0);
  sched::TrustCostMatrix tc(1, 2, 0);
  const sched::SecurityCostModel model;
  const StagingCosts staging =
      compute_staging_costs(grid, {req}, {100.0}, tc, wan());

  sched::SchedulingProblem aware(eec, tc, sched::trust_aware_policy(), model);
  attach_staging(aware, staging);
  // TC = 0 -> aware sees and pays the rcp time on the remote machine.
  EXPECT_NEAR(aware.decision_cost(0, 1) - aware.decision_cost(0, 0),
              staging.trust_adaptive.get(0, 1), 1e-9);
  EXPECT_NEAR(aware.actual_cost(0, 1),
              50.0 + staging.trust_adaptive.get(0, 1), 1e-9);

  sched::SchedulingProblem unaware(eec, tc, sched::trust_unaware_policy(),
                                   model);
  attach_staging(unaware, staging);
  // The unaware mapper is oblivious to staging but pays scp.
  EXPECT_NEAR(unaware.decision_cost(0, 1), unaware.decision_cost(0, 0), 1e-9);
  EXPECT_NEAR(unaware.actual_cost(0, 1),
              50.0 * 1.5 + staging.conservative.get(0, 1), 1e-9);
}

TEST(Staging, HeuristicsHonorExtraCosts) {
  // Two machines, identical EEC; the remote one carries a huge staging
  // cost.  A trust-aware MCT must pick the local machine.
  const grid::GridSystem grid = two_gd_grid();
  const auto req = request_with(trust::TrustLevel::kA);
  sched::CostMatrix eec(1, 2, 50.0);
  sched::TrustCostMatrix tc(1, 2, 0);
  const StagingCosts staging =
      compute_staging_costs(grid, {req}, {1000.0}, tc, wan());
  sched::SchedulingProblem problem(eec, tc, sched::trust_aware_policy(),
                                   sched::SecurityCostModel{});
  attach_staging(problem, staging);
  auto mct = sched::make_mct();
  const sched::Schedule s = sched::run_immediate(problem, *mct);
  EXPECT_EQ(s.machine_of[0], 0u);
}

TEST(Staging, DrawInputSizesRespectsRange) {
  Rng rng(3);
  const auto sizes = draw_input_sizes(100, 10.0, 20.0, rng);
  for (const double s : sizes) {
    EXPECT_GE(s, 10.0);
    EXPECT_LT(s, 20.0);
  }
  EXPECT_THROW(draw_input_sizes(0, 1, 2, rng), PreconditionError);
  EXPECT_THROW(draw_input_sizes(5, -1, 2, rng), PreconditionError);
  EXPECT_THROW(draw_input_sizes(5, 3, 2, rng), PreconditionError);
}

TEST(Staging, Validation) {
  const grid::GridSystem grid = two_gd_grid();
  const auto req = request_with(trust::TrustLevel::kA);
  sched::TrustCostMatrix tc(1, 2, 0);
  EXPECT_THROW(compute_staging_costs(grid, {}, {}, tc, wan()),
               PreconditionError);
  EXPECT_THROW(compute_staging_costs(grid, {req}, {1.0, 2.0}, tc, wan()),
               PreconditionError);
  EXPECT_THROW(compute_staging_costs(grid, {req}, {-1.0}, tc, wan()),
               PreconditionError);
  sched::TrustCostMatrix wrong(2, 2, 0);
  EXPECT_THROW(compute_staging_costs(grid, {req}, {1.0}, wrong, wan()),
               PreconditionError);
  // set_extra_costs shape/value validation.
  sched::CostMatrix eec(1, 2, 50.0);
  sched::SchedulingProblem p(eec, tc, sched::trust_aware_policy(),
                             sched::SecurityCostModel{});
  EXPECT_THROW(p.set_extra_costs(sched::CostMatrix(2, 2, 0.0),
                                 sched::CostMatrix(1, 2, 0.0)),
               PreconditionError);
  EXPECT_THROW(p.set_extra_costs(sched::CostMatrix(1, 2, -1.0),
                                 sched::CostMatrix(1, 2, 0.0)),
               PreconditionError);
}

TEST(Staging, WithPolicyCarriesExtras) {
  const grid::GridSystem grid = two_gd_grid();
  sched::CostMatrix eec(1, 2, 50.0);
  sched::TrustCostMatrix tc(1, 2, 0);
  sched::SchedulingProblem p(eec, tc, sched::trust_aware_policy(),
                             sched::SecurityCostModel{});
  p.set_extra_costs(sched::CostMatrix(1, 2, 7.0), sched::CostMatrix(1, 2, 9.0));
  const sched::SchedulingProblem q =
      p.with_policy(sched::trust_aware_policy());
  EXPECT_NEAR(q.decision_cost(0, 0), 57.0, 1e-9);
  EXPECT_NEAR(q.actual_cost(0, 0), 59.0, 1e-9);
}

TEST(Staging, StagedPairedKeepsRunPairedAsItsPlainArms) {
  Scenario scenario;
  scenario.tasks = 20;
  const obs::RunReport paired = run_paired(scenario, 11);
  const obs::RunReport staged = run_staged_paired(scenario, 400, 1600, 100, 11);
  // The unstaged arms are run_paired's instance and runs, bit for bit.
  EXPECT_EQ(staged.get("plain.unaware.makespan"),
            paired.get("unaware.makespan"));
  EXPECT_EQ(staged.get("plain.aware.makespan"), paired.get("aware.makespan"));
  EXPECT_EQ(staged.get("plain.makespan_diff"), paired.get("makespan_diff"));
  // GB-scale inputs over a 100 Mbps WAN lengthen both staged arms.
  EXPECT_GT(staged.get("unaware.makespan"), paired.get("unaware.makespan"));
  EXPECT_GT(staged.get("aware.makespan"), paired.get("aware.makespan"));
  // Only the two links of Tables 2-3 are modelled.
  EXPECT_THROW(run_staged_paired(scenario, 0, 0, 10, 11), PreconditionError);
}

}  // namespace
}  // namespace gridtrust::sim
