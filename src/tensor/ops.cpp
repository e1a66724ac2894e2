#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/parallel.hpp"

namespace r4ncl {

namespace kernels {

namespace {

/// Columns [j, j + 4·V) of R ≤ 4 rows: R·V accumulators that live in
/// registers (a fixed-size F32x4 array with constant indices; a plain float
/// array of the same shape stays in memory) while k runs.
template <std::size_t R, std::size_t V>
void strip(const float* a, std::size_t k, const float* b, std::size_t n, float* c,
           std::size_t j) noexcept {
  F32x4 acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) acc[r][v] = load4(c + r * n + j + 4 * v);
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n + j;
    F32x4 bv[V];
    for (std::size_t v = 0; v < V; ++v) bv[v] = load4(brow + 4 * v);
    for (std::size_t r = 0; r < R; ++r) {
      const F32x4 av = splat4(a[r * k + kk]);
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) store4(c + r * n + j + 4 * v, acc[r][v]);
  }
}

/// One tile of R ≤ 4 rows over all n columns: 8-wide strips, then a 4-wide
/// one, then scalar columns.  Every element sums k ascending from its c value.
template <std::size_t R>
void tile(const float* a, std::size_t k, const float* b, std::size_t n, float* c) noexcept {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) strip<R, 2>(a, k, b, n, c, j);
  if (j + 4 <= n) {
    strip<R, 1>(a, k, b, n, c, j);
    j += 4;
  }
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      float acc = c[r * n + j];
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[r * k + kk] * b[kk * n + j];
      c[r * n + j] = acc;
    }
  }
}

}  // namespace

void matmul_rows(const float* a, std::size_t rows, std::size_t k, const float* b,
                 std::size_t n, float* c) noexcept {
  for (; rows >= 4; rows -= 4, a += 4 * k, c += 4 * n) tile<4>(a, k, b, n, c);
  switch (rows) {
    case 3: tile<3>(a, k, b, n, c); break;
    case 2: tile<2>(a, k, b, n, c); break;
    case 1: tile<1>(a, k, b, n, c); break;
    default: break;
  }
}

void matmul(const float* a, std::size_t m, std::size_t k, const float* b, std::size_t n,
            float* c) {
  constexpr std::size_t kRows = 4;
  parallel_for(
      0, (m + kRows - 1) / kRows,
      [&](std::size_t tile_index) {
        const std::size_t i = tile_index * kRows, rows = std::min(kRows, m - i);
        float* ctile = c + i * n;
        std::fill(ctile, ctile + rows * n, 0.0f);
        matmul_rows(a + i * k, rows, k, b, n, ctile);
      },
      kRows * k * n);
}

void matmul_at_b_accum(const float* a, const float* b, std::size_t blocks, std::size_t m,
                       std::size_t k, std::size_t n, float* c) {
  // Threads own tiles of kTile output rows.  A tile reads its slice of each
  // a row contiguously and reuses each b row across the tile, while every
  // output element still takes its terms last block first, rows ascending.
  constexpr std::size_t kTile = 8;
  const std::size_t tiles = (k + kTile - 1) / kTile;
  parallel_for(
      0, tiles,
      [&](std::size_t tile) {
        const std::size_t k0 = tile * kTile, k1 = std::min(k, k0 + kTile);
        for (std::size_t blk = blocks; blk-- > 0;) {
          for (std::size_t i = blk * m, end = i + m; i < end; ++i) {
            const float* arow = a + i * k;
            const float* brow = b + i * n;
            for (std::size_t kk = k0; kk < k1; ++kk) {
              const float av = arow[kk];
              if (av == 0.0f) continue;
              float* crow = c + kk * n;
              for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
            }
          }
        }
      },
      kTile * blocks * m * n);
}

void transpose(const float* in, std::size_t rows, std::size_t cols, float* out) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t col = 0; col < cols; ++col) out[col * rows + r] = in[r * cols + col];
  }
}

std::size_t count_nonzero(const float* v, std::size_t n) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += v[i] != 0.0f ? 1 : 0;
  return count;
}

}  // namespace kernels

namespace {
void check_2d(const Tensor& t, const char* name) {
  R4NCL_CHECK(t.rank() == 2, name << " must be 2-D, rank=" << t.rank());
}
}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  check_2d(a, "a");
  check_2d(b, "b");
  check_2d(c, "c");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  R4NCL_CHECK(b.rows() == k,
              "inner dims: a is " << m << "x" << k << ", b has " << b.rows() << " rows");
  R4NCL_CHECK(c.rows() == m && c.cols() == n, "c shape mismatch");
  kernels::matmul(a.raw(), m, k, b.raw(), n, c.raw());
}

double softmax_cross_entropy(const Tensor& logits, std::span<const std::int32_t> labels,
                             Tensor* grad) {
  check_2d(logits, "logits");
  const std::size_t batch = logits.rows(), classes = logits.cols();
  R4NCL_CHECK(labels.size() == batch, "labels size " << labels.size() << " != batch " << batch);
  if (grad != nullptr) {
    R4NCL_CHECK(grad->same_shape(logits), "grad shape mismatch");
  }
  double total = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const float* row = logits.row_ptr(i);
    const std::int32_t label = labels[i];
    R4NCL_CHECK(label >= 0 && static_cast<std::size_t>(label) < classes,
                "label " << label << " out of range " << classes);
    float mx = row[0];
    for (std::size_t j = 1; j < classes; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < classes; ++j) denom += std::exp(static_cast<double>(row[j] - mx));
    const double log_denom = std::log(denom);
    total += -(static_cast<double>(row[static_cast<std::size_t>(label)] - mx) - log_denom);
    if (grad != nullptr) {
      float* grow = grad->row_ptr(i);
      for (std::size_t j = 0; j < classes; ++j) {
        const double p = std::exp(static_cast<double>(row[j] - mx)) / denom;
        grow[j] = static_cast<float>(p * inv_batch);
      }
      grow[static_cast<std::size_t>(label)] -= static_cast<float>(inv_batch);
    }
  }
  return total * inv_batch;
}

std::vector<std::int32_t> argmax_rows(const Tensor& t) {
  R4NCL_CHECK(t.rank() == 2, "argmax_rows requires a 2-D tensor");
  std::vector<std::int32_t> out(t.rows());
  for (std::size_t i = 0; i < t.rows(); ++i) {
    const float* row = t.row_ptr(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < t.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<std::int32_t>(best);
  }
  return out;
}

}  // namespace r4ncl
