// Arrival processes for request workloads.
//
// The paper models request arrivals as a Poisson random process (§5.3).
// ArrivalProcess abstracts the inter-arrival law, and drive_arrivals
// schedules a stream of arrivals on a simulator.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "des/simulator.hpp"

namespace gridtrust::des {

/// Generator of successive inter-arrival gaps (seconds, >= 0).
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Next inter-arrival gap.
  virtual SimTime next_gap() = 0;
};

/// Poisson process: exponential gaps with rate `lambda` arrivals/second.
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(double lambda, Rng rng);
  SimTime next_gap() override;

 private:
  double mean_gap_;
  Rng rng_;
};

/// Schedules `count` arrivals on `sim` starting at now(), invoking
/// `on_arrival(index, time)` for each.  Gaps come from `process`.
void drive_arrivals(Simulator& sim, ArrivalProcess& process, std::size_t count,
                    const std::function<void(std::size_t, SimTime)>& on_arrival);

}  // namespace gridtrust::des
