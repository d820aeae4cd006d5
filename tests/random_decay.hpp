// Test helper: a random decay function Υ for the seeded differential tests.
// Besides the library's none and exponential, it draws two shapes that
// exercise other weight curves through the DecayFunction interface: linear
// decay to zero over a lifetime, and a step to a stale weight after a
// freshness window.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "trust/decay.hpp"

namespace gridtrust::testing_support {

/// max(0, 1 - age / lifetime).
class LinearDecay final : public trust::DecayFunction {
 public:
  explicit LinearDecay(double lifetime) : lifetime_(lifetime) {}
  double value(double age) const override {
    const double v = 1.0 - age / lifetime_;
    return v > 0.0 ? v : 0.0;
  }

 private:
  double lifetime_;
};

/// 1 within `window` seconds, `stale_weight` beyond it.
class StepDecay final : public trust::DecayFunction {
 public:
  StepDecay(double window, double stale_weight)
      : window_(window), stale_weight_(stale_weight) {}
  double value(double age) const override {
    return age <= window_ ? 1.0 : stale_weight_;
  }

 private:
  double window_;
  double stale_weight_;
};

inline std::shared_ptr<const trust::DecayFunction> random_decay(Rng& rng) {
  switch (rng.index(4)) {
    case 0:
      return trust::make_no_decay();
    case 1:
      return trust::make_exponential_decay(rng.uniform(5.0, 50.0));
    case 2:
      return std::make_shared<LinearDecay>(rng.uniform(20.0, 200.0));
    default:
      return std::make_shared<StepDecay>(rng.uniform(5.0, 30.0),
                                         rng.uniform(0.1, 0.9));
  }
}

}  // namespace gridtrust::testing_support
