// Trust decay functions Υ(Δt, c) (§2.2).
//
// Trust decays with time: a five-year-old observation should weigh less than
// yesterday's.  Decay functions map the age of the last transaction to a
// weight in [0, 1].  The paper leaves the functional form open; the engine
// picks one per context, and two are provided: none (every campaign's
// choice) and exponential.  DecayFunction is the interface for others.
#pragma once

#include <memory>

namespace gridtrust::trust {

/// Weight of an observation as a function of its age (seconds).
/// Implementations must be monotonically non-increasing with value(0) == 1.
class DecayFunction {
 public:
  virtual ~DecayFunction() = default;

  /// Weight in [0, 1] for an observation `age` seconds old (age >= 0).
  virtual double value(double age) const = 0;
};

/// No decay: every observation keeps full weight.  Used by the scheduling
/// simulations, where the trust-level table is an input, and as the neutral
/// element in ablations.
class NoDecay final : public DecayFunction {
 public:
  double value(double age) const override;
};

/// Exponential decay with a half-life: value = 2^(-age / half_life).
class ExponentialDecay final : public DecayFunction {
 public:
  explicit ExponentialDecay(double half_life_seconds);
  double value(double age) const override;
  double half_life() const { return half_life_; }

 private:
  double half_life_;
};

/// Convenience factories.
std::shared_ptr<const DecayFunction> make_no_decay();
std::shared_ptr<const DecayFunction> make_exponential_decay(double half_life);

}  // namespace gridtrust::trust
