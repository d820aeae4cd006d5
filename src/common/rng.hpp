// Deterministic pseudo-random number generation for simulations.
//
// All stochastic behaviour in gridtrust flows through Rng, a PCG32 generator
// seeded via SplitMix64.  Every experiment takes an explicit seed so that
// tables are exactly reproducible, and `stream()` derives statistically
// independent sub-generators so parallel replications never share state.
#pragma once

#include <cstdint>
#include <vector>

namespace gridtrust {

/// SplitMix64 step: used for seed expansion.  Public because tests and
/// hash-mixing call sites reuse it.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derives a deterministic seed from an identity tag plus a sequence of ids
/// (e.g. the per-domain, arrival and outcome streams of des/scale.cpp):
/// golden-ratio offset, then FNV-prime chaining.
/// Centralized here so call sites never hold raw seed constants (gt-lint
/// GT003); the derivation is stable — recorded baselines depend on it.
std::uint64_t derive_seed(std::uint64_t tag, const std::vector<std::size_t>& ids);

/// A PCG32 (XSH-RR) pseudo-random generator with explicit streams.
///
/// Satisfies std::uniform_random_bit_generator, so it can also drive
/// standard-library distributions, but the member distributions below are
/// preferred: they are stable across standard library implementations.
class Rng {
 public:
  using result_type = std::uint32_t;

  /// Seeds the generator.  Two Rngs with the same (seed, stream) produce the
  /// same sequence; different streams are independent.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  /// Next raw 32-bit output.
  result_type operator()();

  /// Derives an independent generator for sub-stream `id` (e.g. one per
  /// replication).  The parent's state is not advanced.
  Rng stream(std::uint64_t id) const;

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive, without modulo bias.
  /// Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n).  Requires n > 0.
  std::size_t index(std::size_t n);

  /// Exponentially distributed value with the given mean (> 0).  Used for
  /// Poisson-process inter-arrival times.
  double exponential(double mean);

  /// Standard normal via Box-Muller (no cached spare: keeps streams simple).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = index(i + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Draws k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;  // odd; selects the stream
  std::uint64_t seed_;  // retained so stream() can derive children
};

}  // namespace gridtrust
