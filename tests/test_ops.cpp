// Matmul and BPTT gradient kernels against naive references, plus softmax/CE
// properties.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl {
namespace {

Tensor random_tensor(std::size_t r, std::size_t c, Rng& rng, double sparsity = 0.0) {
  Tensor t(r, c);
  for (auto& v : t.values()) {
    v = rng.bernoulli(sparsity) ? 0.0f : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

/// The k-ascending scalar loop, each element starting from `seed`'s value
/// (zero when absent) — the order every element of kernels::matmul keeps.
Tensor naive_matmul(const Tensor& a, const Tensor& b, const Tensor* seed = nullptr) {
  Tensor c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = seed != nullptr ? (*seed)(i, j) : 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

void expect_tensor_near(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a(i), b(i), tol) << "element " << i;
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) && std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

/// Parameterised over (m, k, n, sparsity) so zero a entries (no spike event)
/// are exercised alongside dense inputs and both thread regimes, and so the
/// register tile meets every row remainder (m mod 4) and column remainder
/// (8-wide strips, a 4-wide strip, scalar columns).
class MatmulSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, double>> {
};

TEST_P(MatmulSweep, MatchesNaiveReference) {
  const auto [m, k, n, sparsity] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  const Tensor a = random_tensor(m, k, rng, sparsity);
  const Tensor b = random_tensor(k, n, rng);
  Tensor c(m, n);
  matmul(a, b, c);
  EXPECT_TRUE(same_bits(c, naive_matmul(a, b)));
}

/// matmul_rows, the kernel that sums onto a live c, starts every element
/// from its c value.
TEST_P(MatmulSweep, AccumulateAddsOnTop) {
  const auto [m, k, n, sparsity] = GetParam();
  Rng rng(m + k + n + 7);
  const Tensor a = random_tensor(m, k, rng, sparsity);
  const Tensor b = random_tensor(k, n, rng);
  Tensor c = random_tensor(m, n, rng);
  const Tensor expected = naive_matmul(a, b, &c);
  kernels::matmul_rows(a.raw(), m, k, b.raw(), n, c.raw());
  EXPECT_TRUE(same_bits(c, expected));
}

Tensor transposed(const Tensor& t) {
  Tensor out(t.cols(), t.rows());
  kernels::transpose(t.raw(), t.rows(), t.cols(), out.raw());
  return out;
}

/// The BPTT weight-gradient kernel over several blocks of m rows (one per
/// timestep): the sum matches Σ_blk a_blkᵀ·b_blk, and one call is bitwise
/// equal to per-block calls made last block first.
TEST_P(MatmulSweep, TransposeAAccumulate) {
  const auto [m, k, n, sparsity] = GetParam();
  constexpr std::size_t kBlocks = 3;
  Rng rng(m * 31 + k * 17 + n);
  const Tensor a = random_tensor(kBlocks * m, k, rng, sparsity);
  const Tensor b = random_tensor(kBlocks * m, n, rng);
  Tensor c(k, n);
  c.fill(1.5f);  // the kernel accumulates onto existing gradients
  kernels::matmul_at_b_accum(a.raw(), b.raw(), kBlocks, m, k, n, c.raw());
  Tensor expected = naive_matmul(transposed(a), b);
  for (auto& v : expected.values()) v += 1.5f;
  expect_tensor_near(c, expected, 1e-3f);

  Tensor per_block(k, n);
  per_block.fill(1.5f);
  for (std::size_t blk = kBlocks; blk-- > 0;) {
    kernels::matmul_at_b_accum(a.raw() + blk * m * k, b.raw() + blk * m * n, 1, m, k, n,
                               per_block.raw());
  }
  EXPECT_TRUE(same_bits(c, per_block));
}

/// dY·Wᵀ as the backward pass computes it — matmul against transpose(W) —
/// matches the naive product and, bit for bit, the k-ascending scalar dot
/// product of each row of a with each row of b.
TEST_P(MatmulSweep, TransposeB) {
  const auto [m, k, n, sparsity] = GetParam();
  Rng rng(m * 13 + k * 7 + n * 3);
  const Tensor a = random_tensor(m, n, rng, sparsity);
  const Tensor b = random_tensor(k, n, rng);
  const Tensor bt = transposed(b);
  Tensor c(m, k);
  c.fill(9.0f);  // overwritten, not accumulated
  matmul(a, bt, c);
  expect_tensor_near(c, naive_matmul(a, bt));

  Tensor dots(m, k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      float acc = 0.0f;
      for (std::size_t t = 0; t < n; ++t) acc += a(i, t) * b(j, t);
      dots(i, j) = acc;
    }
  }
  EXPECT_TRUE(same_bits(c, dots));

  // matmul_rows is matmul's serial tile body: called on tiles of 1 to 4
  // rows into a zeroed output, it gives the same bits.
  for (std::size_t tile = 1; tile <= 4; ++tile) {
    Tensor rows(m, k);
    for (std::size_t i = 0; i < m; i += tile) {
      kernels::matmul_rows(a.row_ptr(i), std::min(tile, m - i), n, bt.raw(), k,
                           rows.row_ptr(i));
    }
    EXPECT_TRUE(same_bits(c, rows)) << "tiles of " << tile << " rows";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSweep,
    ::testing::Values(std::make_tuple(1, 1, 1, 0.0), std::make_tuple(3, 5, 2, 0.0),
                      std::make_tuple(8, 16, 8, 0.5), std::make_tuple(17, 33, 9, 0.9),
                      std::make_tuple(64, 128, 32, 0.95), std::make_tuple(2, 700, 200, 0.98)));

// Every row remainder of the 4-row tile (m = 1, 2, 3 and 5, 9 past full
// tiles) against every column path: n = 1, 3 scalar only; 5 one 4-wide strip
// + 1 scalar; 17 two 8-wide strips + 1; 50 six 8-wide + 2 (ncl_stream's
// learning layer); 53 six 8-wide + one 4-wide + 1.  k = 19 leaves the same
// remainders in TransposeB's and TransposeAAccumulate's outputs.
INSTANTIATE_TEST_SUITE_P(
    Remainders, MatmulSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 9),
                       ::testing::Values<std::size_t>(19),
                       ::testing::Values<std::size_t>(1, 3, 5, 17, 50, 53),
                       ::testing::Values(0.0, 0.6)));

TEST(Ops, ProductsRoundBeforeTheSum) {
  // (1 + 2⁻¹²)² = 1 + 2⁻¹¹ + 2⁻²⁴ rounds to 1 + 2⁻¹¹ as a float product, so
  // added to −(1 + 2⁻¹¹) it gives exactly 0; one fused multiply-add would
  // keep the 2⁻²⁴.  5 × 13 reaches the 4-row and 1-row tiles, an 8-wide
  // strip, a 4-wide strip and a scalar column.
  constexpr std::size_t m = 5, n = 13;
  const float x = 1.0f + std::ldexp(1.0f, -12);
  const std::vector<float> a(m, x), b(n, x);
  std::vector<float> c(m * n, -(1.0f + std::ldexp(1.0f, -11)));
  kernels::matmul_rows(a.data(), m, 1, b.data(), n, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.0f) << "element " << i;
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(matmul(a, b, c), Error);
}

TEST(Ops, CountNonzero) {
  const float v[] = {0.0f, 1.0f, 0.0f, -2.0f, 0.0f};
  EXPECT_EQ(kernels::count_nonzero(v, 5), 2u);
  EXPECT_EQ(kernels::count_nonzero(v, 0), 0u);
}

TEST(Ops, SoftmaxCrossEntropyUniformLogits) {
  Tensor logits(2, 4);  // all zeros → uniform distribution
  const std::int32_t labels[] = {0, 3};
  const double loss = softmax_cross_entropy(logits, labels, nullptr);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
}

TEST(Ops, SoftmaxCrossEntropyPerfectPrediction) {
  Tensor logits(1, 3);
  logits(0, 1) = 100.0f;
  const std::int32_t labels[] = {1};
  EXPECT_NEAR(softmax_cross_entropy(logits, labels, nullptr), 0.0, 1e-6);
}

TEST(Ops, SoftmaxGradientSumsToZeroPerRow) {
  Rng rng(2);
  Tensor logits = random_tensor(3, 5, rng);
  Tensor grad(3, 5);
  const std::int32_t labels[] = {0, 2, 4};
  (void)softmax_cross_entropy(logits, labels, &grad);
  for (std::size_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 5; ++j) row_sum += grad(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
}

TEST(Ops, SoftmaxGradientMatchesFiniteDifference) {
  Rng rng(4);
  Tensor logits = random_tensor(2, 3, rng);
  Tensor grad(2, 3);
  const std::int32_t labels[] = {1, 2};
  (void)softmax_cross_entropy(logits, labels, &grad);
  const float h = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float keep = logits(i);
    logits(i) = keep + h;
    const double up = softmax_cross_entropy(logits, labels, nullptr);
    logits(i) = keep - h;
    const double down = softmax_cross_entropy(logits, labels, nullptr);
    logits(i) = keep;
    EXPECT_NEAR(grad(i), (up - down) / (2.0 * h), 5e-3) << "logit " << i;
  }
}

TEST(Ops, SoftmaxRejectsBadLabel) {
  Tensor logits(1, 3);
  const std::int32_t labels[] = {3};
  EXPECT_THROW(softmax_cross_entropy(logits, labels, nullptr), Error);
}

TEST(Ops, ArgmaxRows) {
  Tensor t(2, 3);
  t(0, 1) = 5.0f;
  t(1, 2) = 2.0f;
  const auto am = argmax_rows(t);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 2);
}

}  // namespace
}  // namespace r4ncl
