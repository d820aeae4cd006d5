#include "trust/decay.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gridtrust::trust {

double NoDecay::value(double age) const {
  GT_REQUIRE(age >= 0.0, "age must be non-negative");
  return 1.0;
}

ExponentialDecay::ExponentialDecay(double half_life_seconds)
    : half_life_(half_life_seconds) {
  GT_REQUIRE(half_life_seconds > 0.0, "half-life must be positive");
}

double ExponentialDecay::value(double age) const {
  GT_REQUIRE(age >= 0.0, "age must be non-negative");
  return std::exp2(-age / half_life_);
}

std::shared_ptr<const DecayFunction> make_no_decay() {
  return std::make_shared<NoDecay>();
}
std::shared_ptr<const DecayFunction> make_exponential_decay(double half_life) {
  return std::make_shared<ExponentialDecay>(half_life);
}

}  // namespace gridtrust::trust
