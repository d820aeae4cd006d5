// Fault injection (gridtrust::chaos).
//
// Faults are declared as windows on the simulation clock and come in two
// families: machine faults (crash/recover, transient slowdown) that perturb
// execution costs, and recommendation-channel faults (dropped or delayed
// reports) that starve the trust engine of evidence.
//
// Two drivers share the window semantics:
//   - FaultTimeline: the validated windows, which apply_machine_faults
//     samples at request arrival times (the static experiment path,
//     sim::draw_instance).
//   - FaultInjector: schedules each window's begin/end as first-class DES
//     events ("chaos_fault") on a des::Simulator and maintains the live
//     state in between; the campaign driver samples it at round starts.
//
// Probabilistic effects (report drops) consume the caller's seeded Rng, so
// identical seeds replay identical fault histories.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/simulator.hpp"
#include "sched/matrix.hpp"

namespace gridtrust::chaos {

/// Target wildcard: the fault applies to every machine / client domain.
inline constexpr std::size_t kAllTargets = static_cast<std::size_t>(-1);

/// What a fault window does while active.
enum class FaultKind {
  /// Machine `target` is down during the window.  Drivers price downtime as
  /// a large cost penalty, keeping the machine feasible but maximally
  /// unattractive to every cost-driven heuristic.
  kMachineCrash,
  /// Execution on machine `target` takes `magnitude` times as long (> 1).
  kMachineSlowdown,
  /// Client domain `target`'s recommendation reports are dropped with
  /// probability `magnitude` (in (0, 1]).
  kReportDrop,
  /// Client domain `target`'s reports arrive `magnitude` rounds late
  /// (a positive integer).
  kReportDelay,
};

/// One fault window [at, at + duration).
struct FaultSpec {
  FaultKind kind = FaultKind::kMachineSlowdown;
  /// Machine id (machine faults) or CD index (report faults); kAllTargets
  /// hits everything of the kind's target class.
  std::size_t target = kAllTargets;
  /// Window start on the simulation clock (seconds, >= 0).
  double at = 0.0;
  /// Window length (seconds, > 0).
  double duration = 0.0;
  /// Kind-specific strength; see FaultKind.
  double magnitude = 1.0;
};

/// Validates one spec's ranges; throws PreconditionError on violations.
void validate_spec(const FaultSpec& spec);

/// Process-level fault: worker `worker` kills itself with `signal` after
/// completing `after_cells` fresh cells, for its first `incarnations`
/// incarnations.  The kill is a deterministic self-signal fired *after*
/// the cell's journal flush, so the supervisor's crash-recovery path (the
/// journal re-anchor, the reassignment, the byte-identical merge) is
/// exercised by the same closed-loop chaos discipline as the simulation
/// faults above — no timing races, identical replay under any scheduler.
struct WorkerFaultPlan {
  /// Index of the worker to kill (0-based supervisor slot).
  std::size_t worker = 0;
  /// Fresh (non-resumed) cells the doomed incarnation completes first.
  std::size_t after_cells = 1;
  /// Signal the worker sends itself (SIGKILL by default: the harshest
  /// death — no destructors, no journal flush beyond the last cell's).
  int signal = 9;
  /// How many consecutive incarnations die; the next respawn survives.
  std::size_t incarnations = 1;
};

/// Validates a worker fault plan; throws PreconditionError on violations.
void validate_plan(const WorkerFaultPlan& plan);

/// Validated fault windows for the static path (apply_machine_faults).
class FaultTimeline {
 public:
  /// Validates every spec.
  explicit FaultTimeline(std::vector<FaultSpec> specs);

  bool empty() const { return specs_.empty(); }
  const std::vector<FaultSpec>& specs() const { return specs_; }

 private:
  std::vector<FaultSpec> specs_;
};

/// Outcome of applying machine faults to a drawn instance (static path).
struct FaultApplication {
  /// Fault windows that perturbed at least one (request, machine) cell.
  std::uint64_t windows_applied = 0;
  /// Cells whose cost changed.
  std::uint64_t cells_perturbed = 0;
};

/// Applies the timeline's machine faults to an EEC matrix by sampling the
/// fault state at each request's arrival time: active slowdowns scale the
/// request's cost on the machine, a crash adds `crash_penalty` seconds.
/// Machine targets must be inside [0, eec.cols()); `arrivals` must have one
/// entry per EEC row.  Report faults are ignored (no trust evolution in the
/// static path).
FaultApplication apply_machine_faults(const FaultTimeline& timeline,
                                      const std::vector<double>& arrivals,
                                      sched::CostMatrix& eec,
                                      double crash_penalty);

/// DES-driven fault state: one begin and one end event per window.
class FaultInjector {
 public:
  /// Validates specs and that machine targets are inside [0, machines).
  FaultInjector(std::vector<FaultSpec> specs, std::size_t machines);

  /// Schedules every window's begin/end as "chaos_fault" events on `sim`
  /// (absolute times; the simulator clock must not have passed them).
  /// Returns the number of events scheduled.
  std::size_t install(des::Simulator& sim);

  // Live state — valid at the owning simulator's current time.
  bool machine_up(std::size_t machine) const;
  double slowdown(std::size_t machine) const;
  double report_drop_probability(std::size_t cd) const;
  std::size_t report_delay_rounds(std::size_t cd) const;

  /// Machines currently down.
  std::size_t machines_down() const;

  /// Fault windows whose begin event has fired so far.
  std::uint64_t faults_injected() const { return injected_; }

 private:
  void begin(std::size_t spec_index);
  void end(std::size_t spec_index);

  std::vector<FaultSpec> specs_;
  std::size_t machines_;
  std::vector<int> down_;             // per machine: active crash windows
  std::vector<double> slow_factor_;   // per machine: product of active factors
  std::vector<bool> active_;          // per spec: window currently open
  std::uint64_t injected_ = 0;
};

}  // namespace gridtrust::chaos
