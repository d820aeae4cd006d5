#include "des/arrival.hpp"

#include "common/error.hpp"

namespace gridtrust::des {

PoissonArrivals::PoissonArrivals(double lambda, Rng rng)
    : mean_gap_(0.0), rng_(rng) {
  GT_REQUIRE(lambda > 0.0, "Poisson rate must be positive");
  mean_gap_ = 1.0 / lambda;
}

SimTime PoissonArrivals::next_gap() { return rng_.exponential(mean_gap_); }

void drive_arrivals(Simulator& sim, ArrivalProcess& process, std::size_t count,
                    const std::function<void(std::size_t, SimTime)>& on_arrival) {
  GT_REQUIRE(on_arrival != nullptr, "drive_arrivals requires a callback");
  // Shared copy: the callback must outlive this call (events run later).
  auto cb = std::make_shared<std::function<void(std::size_t, SimTime)>>(
      on_arrival);
  SimTime t = sim.now();
  for (std::size_t i = 0; i < count; ++i) {
    t += process.next_gap();
    sim.schedule_at(t, [i, t, cb] { (*cb)(i, t); });
  }
}

}  // namespace gridtrust::des
