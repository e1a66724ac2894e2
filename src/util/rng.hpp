// Deterministic random number generation for all stochastic components.
//
// Every stochastic piece of the library (dataset synthesis, weight init,
// minibatch shuffling) takes an explicit seed so experiments reproduce
// bit-for-bit.  Rng wraps a SplitMix64 core — small, fast, and with
// well-understood statistical quality for simulation workloads.
#pragma once

#include <cstdint>
#include <vector>

namespace r4ncl {

/// Seeded pseudo-random generator with the sampling helpers the library needs.
///
/// Satisfies UniformRandomBitGenerator so it can also feed <random>
/// distributions, but the member helpers below are the preferred interface —
/// they are deterministic across standard libraries (std::normal_distribution
/// is not guaranteed to produce identical streams on different platforms).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit draw (SplitMix64 step).
  result_type operator()() noexcept;

  /// Derives an independent child generator; used to give each dataset /
  /// layer / epoch its own stream without correlation.
  Rng fork() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Standard normal via Box–Muller (deterministic across platforms).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& v) noexcept;

  /// [0, 1, ..., n-1] shuffled — the common minibatch-order helper.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Complete serializable snapshot of a generator.  The Box–Muller spare
  /// normal is part of the stream: dropping it on a checkpoint/restore cycle
  /// would shift every subsequent normal() draw by one, so both the flag and
  /// the cached value must round-trip for resumed runs to stay bit-identical.
  struct State {
    std::uint64_t state = 0;
    bool have_spare_normal = false;
    double spare_normal = 0.0;

    [[nodiscard]] bool operator==(const State&) const noexcept = default;
  };

  [[nodiscard]] State state() const noexcept {
    return {state_, have_spare_normal_, spare_normal_};
  }
  void restore(const State& s) noexcept {
    state_ = s.state;
    have_spare_normal_ = s.have_spare_normal;
    spare_normal_ = s.spare_normal;
  }

 private:
  std::uint64_t state_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace r4ncl
