// Determinism and basic statistical sanity of the seeded RNG.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace r4ncl {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
  Rng parent(99);
  Rng child = parent.fork();
  const auto child_first = child();
  // Parent keeps producing values unrelated to the child's stream.
  EXPECT_NE(parent(), child_first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.uniform_index(10));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(10);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerateCases) {
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(16);
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationActuallyShuffles) {
  Rng rng(17);
  const auto p = rng.permutation(50);
  std::vector<std::size_t> identity(50);
  for (std::size_t i = 0; i < 50; ++i) identity[i] = i;
  EXPECT_NE(p, identity);
}

}  // namespace
}  // namespace r4ncl
