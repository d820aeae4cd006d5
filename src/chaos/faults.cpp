#include "chaos/faults.hpp"

#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::chaos {

namespace {

const obs::Counter kFaultsInjected("chaos.faults_injected");

bool machine_fault(FaultKind kind) {
  return kind == FaultKind::kMachineCrash ||
         kind == FaultKind::kMachineSlowdown;
}

bool covers(const FaultSpec& spec, std::size_t target, double t) {
  return (spec.target == kAllTargets || spec.target == target) &&
         t >= spec.at && t < spec.at + spec.duration;
}

}  // namespace

void validate_spec(const FaultSpec& spec) {
  GT_REQUIRE(spec.at >= 0.0, "fault window must start at time >= 0");
  GT_REQUIRE(spec.duration > 0.0, "fault window needs a positive duration");
  switch (spec.kind) {
    case FaultKind::kMachineCrash:
      break;
    case FaultKind::kMachineSlowdown:
      GT_REQUIRE(spec.magnitude > 1.0,
                 "slowdown magnitude must exceed 1 (an execution-time factor)");
      break;
    case FaultKind::kReportDrop:
      GT_REQUIRE(spec.magnitude > 0.0 && spec.magnitude <= 1.0,
                 "report-drop magnitude is a probability in (0, 1]");
      break;
    case FaultKind::kReportDelay:
      GT_REQUIRE(spec.magnitude >= 1.0 &&
                     spec.magnitude == std::floor(spec.magnitude),
                 "report-delay magnitude is a whole number of rounds >= 1");
      break;
  }
}

void validate_plan(const WorkerFaultPlan& plan) {
  GT_REQUIRE(plan.after_cells >= 1,
             "worker fault plan must let the worker complete >= 1 cell");
  GT_REQUIRE(plan.signal >= 1, "worker fault plan needs a real signal");
  GT_REQUIRE(plan.incarnations >= 1,
             "worker fault plan must kill >= 1 incarnation");
}

FaultTimeline::FaultTimeline(std::vector<FaultSpec> specs)
    : specs_(std::move(specs)) {
  for (const FaultSpec& spec : specs_) validate_spec(spec);
}

FaultApplication apply_machine_faults(const FaultTimeline& timeline,
                                      const std::vector<double>& arrivals,
                                      sched::CostMatrix& eec,
                                      double crash_penalty) {
  GT_REQUIRE(arrivals.size() == eec.rows(),
             "need one arrival time per EEC row");
  GT_REQUIRE(std::isfinite(crash_penalty) && crash_penalty > 0.0,
             "crash penalty must be finite and positive");
  for (const FaultSpec& spec : timeline.specs()) {
    GT_REQUIRE(!machine_fault(spec.kind) || spec.target == kAllTargets ||
                   spec.target < eec.cols(),
               "machine fault targets an unknown machine");
  }
  FaultApplication out;
  std::vector<bool> touched(timeline.specs().size(), false);
  for (std::size_t r = 0; r < eec.rows(); ++r) {
    for (std::size_t m = 0; m < eec.cols(); ++m) {
      double cost = eec.get(r, m);
      const double before = cost;
      for (std::size_t i = 0; i < timeline.specs().size(); ++i) {
        const FaultSpec& spec = timeline.specs()[i];
        if (!covers(spec, m, arrivals[r])) continue;
        if (spec.kind == FaultKind::kMachineSlowdown) {
          cost *= spec.magnitude;
          touched[i] = true;
        } else if (spec.kind == FaultKind::kMachineCrash) {
          cost += crash_penalty;
          touched[i] = true;
        }
      }
      if (cost != before) {
        eec.at(r, m) = cost;
        ++out.cells_perturbed;
      }
    }
  }
  for (const bool t : touched) {
    if (t) ++out.windows_applied;
  }
  kFaultsInjected.add(static_cast<double>(out.windows_applied));
  return out;
}

FaultInjector::FaultInjector(std::vector<FaultSpec> specs,
                             std::size_t machines)
    : specs_(std::move(specs)),
      machines_(machines),
      down_(machines, 0),
      slow_factor_(machines, 1.0),
      active_(specs_.size(), false) {
  for (const FaultSpec& spec : specs_) {
    validate_spec(spec);
    GT_REQUIRE(!machine_fault(spec.kind) || spec.target == kAllTargets ||
                   spec.target < machines_,
               "machine fault targets an unknown machine");
  }
}

std::size_t FaultInjector::install(des::Simulator& sim) {
  std::size_t events = 0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& spec = specs_[i];
    sim.schedule_at(spec.at, [this, i] { begin(i); }, "chaos_fault");
    sim.schedule_at(spec.at + spec.duration, [this, i] { end(i); },
                    "chaos_fault");
    events += 2;
  }
  return events;
}

void FaultInjector::begin(std::size_t spec_index) {
  const FaultSpec& spec = specs_[spec_index];
  GT_ASSERT(!active_[spec_index]);
  active_[spec_index] = true;
  ++injected_;
  kFaultsInjected.add();
  if (!machine_fault(spec.kind)) return;
  for (std::size_t m = 0; m < machines_; ++m) {
    if (spec.target != kAllTargets && spec.target != m) continue;
    if (spec.kind == FaultKind::kMachineCrash) {
      ++down_[m];
    } else {
      slow_factor_[m] *= spec.magnitude;
    }
  }
}

void FaultInjector::end(std::size_t spec_index) {
  const FaultSpec& spec = specs_[spec_index];
  GT_ASSERT(active_[spec_index]);
  active_[spec_index] = false;
  if (!machine_fault(spec.kind)) return;
  for (std::size_t m = 0; m < machines_; ++m) {
    if (spec.target != kAllTargets && spec.target != m) continue;
    if (spec.kind == FaultKind::kMachineCrash) {
      --down_[m];
    } else {
      slow_factor_[m] /= spec.magnitude;
    }
  }
}

bool FaultInjector::machine_up(std::size_t machine) const {
  GT_REQUIRE(machine < machines_, "machine index out of range");
  return down_[machine] == 0;
}

double FaultInjector::slowdown(std::size_t machine) const {
  GT_REQUIRE(machine < machines_, "machine index out of range");
  return slow_factor_[machine];
}

double FaultInjector::report_drop_probability(std::size_t cd) const {
  double p = 0.0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& spec = specs_[i];
    if (active_[i] && spec.kind == FaultKind::kReportDrop &&
        (spec.target == kAllTargets || spec.target == cd)) {
      p = std::max(p, spec.magnitude);
    }
  }
  return p;
}

std::size_t FaultInjector::report_delay_rounds(std::size_t cd) const {
  std::size_t delay = 0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& spec = specs_[i];
    if (active_[i] && spec.kind == FaultKind::kReportDelay &&
        (spec.target == kAllTargets || spec.target == cd)) {
      delay = std::max(delay, static_cast<std::size_t>(spec.magnitude));
    }
  }
  return delay;
}

std::size_t FaultInjector::machines_down() const {
  std::size_t n = 0;
  for (const int d : down_) {
    if (d > 0) ++n;
  }
  return n;
}

}  // namespace gridtrust::chaos
