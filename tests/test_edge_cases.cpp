// Edge-case sweep across modules: boundary inputs that none of the
// module-focused suites exercise.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/table.hpp"
#include "des/simulator.hpp"
#include "net/link_sim.hpp"
#include "sched/executor.hpp"
#include "sched/gantt.hpp"
#include "sched/heuristic.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust {
namespace {

// ---------------------------------------------------------------- tables

TEST(EdgeCases, FormatGroupedBoundaries) {
  EXPECT_EQ(format_grouped(999999.994, 2), "999,999.99");
  EXPECT_EQ(format_grouped(999.999, 2), "1,000.00");  // rounding carries
  EXPECT_EQ(format_grouped(-0.004, 2), "0.00");       // negative-zero squash
  EXPECT_EQ(format_grouped(1e12, 0), "1,000,000,000,000");
  EXPECT_THROW(format_grouped(1.0, -1), PreconditionError);
  EXPECT_THROW(format_grouped(1.0, 13), PreconditionError);
}

TEST(EdgeCases, EmptyTableStillRenders) {
  TextTable t({"only header"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("only header"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "only header\n");
  EXPECT_NE(t.to_markdown().find("| only header |"), std::string::npos);
}

// ---------------------------------------------------------------- DES

TEST(EdgeCases, ZeroDelayEventRunsAtCurrentTime) {
  des::Simulator sim;
  double at = -1.0;
  sim.schedule_at(3.0, [&] {
    sim.schedule_in(0.0, [&] { at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(at, 3.0);
}

TEST(EdgeCases, CancelledHeadDoesNotStallStep) {
  des::Simulator sim;
  const des::EventId head = sim.schedule_at(1.0, [] {});
  bool ran = false;
  sim.schedule_at(2.0, [&] { ran = true; });
  sim.cancel(head);
  EXPECT_TRUE(sim.step());  // skips the cancelled head, runs the next
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 2.0);
}

// ---------------------------------------------------------------- sched

sched::SchedulingProblem one_machine_problem() {
  sched::CostMatrix eec(3, 1, 10.0);
  sched::TrustCostMatrix tc(3, 1, 0);
  return sched::SchedulingProblem(std::move(eec), std::move(tc),
                                  sched::trust_aware_policy(),
                                  sched::SecurityCostModel{});
}

TEST(EdgeCases, SingleMachineSerializesEverything) {
  const sched::SchedulingProblem p = one_machine_problem();
  for (const std::string& name : sched::batch_heuristic_names()) {
    auto h = sched::make_batch(name);
    const sched::Schedule s = sched::run_batch_all(p, *h);
    EXPECT_TRUE(s.complete()) << name;
    EXPECT_NEAR(s.makespan(), 30.0, 1e-9) << name;
    EXPECT_NEAR(s.utilization_pct(), 100.0, 1e-9) << name;
  }
  for (const std::string& name : sched::immediate_heuristic_names()) {
    auto h = sched::make_immediate(name);
    const sched::Schedule s = sched::run_immediate(p, *h);
    EXPECT_NEAR(s.makespan(), 30.0, 1e-9) << name;
  }
}

TEST(EdgeCases, SingleRequestBatch) {
  sched::CostMatrix eec(1, 3);
  eec.at(0, 0) = 9;
  eec.at(0, 1) = 3;
  eec.at(0, 2) = 7;
  sched::TrustCostMatrix tc(1, 3, 0);
  const sched::SchedulingProblem p(eec, tc, sched::trust_aware_policy(),
                                   sched::SecurityCostModel{});
  for (const std::string& name : sched::batch_heuristic_names()) {
    auto h = sched::make_batch(name);
    const sched::Schedule s = sched::run_batch_all(p, *h);
    EXPECT_EQ(s.machine_of[0], 1u) << name;  // every mapper finds the min
  }
}

TEST(EdgeCases, SwitchingResetClearsItsMode) {
  // Drive Switching into MET mode, then reset; a fresh balanced state must
  // decide exactly as a brand-new instance would.
  sched::CostMatrix eec(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    eec.at(r, 0) = 10.0;
    eec.at(r, 1) = 20.0;
  }
  sched::TrustCostMatrix tc(4, 2, 0);
  const sched::SchedulingProblem p(eec, tc, sched::trust_aware_policy(),
                                   sched::SecurityCostModel{});
  auto sa = sched::make_switching(0.1, 0.2);
  const sched::Schedule first = sched::run_immediate(p, *sa);
  const sched::Schedule second = sched::run_immediate(p, *sa);  // reset()s
  EXPECT_EQ(first.machine_of, second.machine_of);
}

TEST(EdgeCases, GanttSingleColumnFloorsAreVisible) {
  const sched::SchedulingProblem p = one_machine_problem();
  auto mct = sched::make_mct();
  const sched::Schedule s = sched::run_immediate(p, *mct);
  sched::GanttOptions options;
  options.width = 9;
  const std::string chart = sched::render_gantt(p, s, options);
  EXPECT_NE(chart.find("000111222"), std::string::npos);
  EXPECT_NE(chart.find("30.0"), std::string::npos);  // axis label
}

// ---------------------------------------------------------------- trust

TEST(EdgeCases, OfferedTrustLevelToleratesRepeatedActivities) {
  trust::TrustLevelTable table(1, 1, 3);
  table.set(0, 0, 0, trust::TrustLevel::kD);
  table.set(0, 0, 1, trust::TrustLevel::kB);
  const std::size_t acts[] = {0, 1, 1, 0};
  EXPECT_EQ(table.offered_trust_level(0, 0, acts), trust::TrustLevel::kB);
}

// ---------------------------------------------------------------- net

TEST(EdgeCases, LinkSimAggregateRateNeverExceedsResources) {
  const net::LinkProfile link = net::gigabit_ethernet_link();
  const net::HostProfile host = net::piii_866_host(link);
  const net::SharedLinkSimulator sim(host, link);
  const auto report = sim.stage_parallel(6, Megabytes(50), net::Protocol::kRcp);
  // Aggregate throughput cannot beat the shared disk.
  EXPECT_LE(report.aggregate_rate_mb_s, host.disk.value() + 1e-6);
  const auto scp = sim.stage_parallel(6, Megabytes(50), net::Protocol::kScp);
  // ...nor can secure flows beat the shared cipher CPU.
  EXPECT_LE(scp.aggregate_rate_mb_s, host.cipher.value() + 1e-6);
}

TEST(EdgeCases, TinyTransfersAreHandshakeBound) {
  const net::LinkProfile link = net::gigabit_ethernet_link();
  const net::TransferModel model(net::piii_866_host(link), link);
  const auto result = model.transfer(Megabytes(0.01), net::Protocol::kScp);
  EXPECT_EQ(result.chunks, 1u);
  EXPECT_GT(result.handshake_s / result.duration_s, 0.9);
}

}  // namespace
}  // namespace gridtrust
