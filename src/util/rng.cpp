#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace r4ncl {

Rng::result_type Rng::operator()() noexcept {
  // SplitMix64 (Steele, Lea, Flood 2014).
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng Rng::fork() noexcept {
  // A fresh draw seeds the child; parent state advances so successive forks
  // yield independent streams.
  return Rng((*this)());
}

double Rng::uniform() noexcept {
  // 53 high bits → double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Modulo bias is negligible for n << 2^64 (worst case here: n ~ 1e9).
  return n == 0 ? 0 : (*this)() % n;
}

double Rng::normal() noexcept {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  // Box–Muller; u1 is nudged away from zero so log() stays finite.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_normal_ = r * std::sin(theta);
  have_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

void Rng::shuffle(std::vector<std::size_t>& v) noexcept {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(v[i - 1], v[j]);
  }
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  shuffle(v);
  return v;
}

}  // namespace r4ncl
