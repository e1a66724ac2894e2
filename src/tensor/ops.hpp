// Dense kernels for the SNN forward/backward passes.
//
// Conventions: activations are (batch × features) matrices; weight matrices
// are (in_features × out_features) so the forward pass is Y = X · W.  The
// BPTT gradient terms of a (T × B × features) pass map onto two kernels:
//   dW += Σ_t X(t)ᵀ · dY(t)  (matmul_at_b_accum: all T blocks of B rows in
//                             one call, t descending, rows ascending)
//   dX  = dY · Wᵀ            (matmul / matmul_rows against transpose(W))
// matmul has one implementation, a register tile: 4 rows of `a` share every
// loaded row of `b`, and a strip of 8 columns of those 4 output rows stays in
// vector registers (F32x4 below) while k runs.  Lanes run across independent
// output elements, never across a reduction, so each element still sums its
// products k ascending onto its c value, one IEEE multiply and one add per
// term, as the scalar loop does.  The library compiles with
// -ffp-contract=off (src/CMakeLists.txt), so no build fuses a multiply-add.
// matmul and matmul_at_b_accum parallelise over output tiles via
// parallel_for; matmul_rows and transpose are serial, for callers already
// inside a parallel loop (or with weight-sized inputs).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace r4ncl {

namespace kernels {

// Raw row-major kernels — the Tensor matmul overload below wraps matmul, and
// the SNN layers call them directly on 3-D spike cubes viewed as (T·B ×
// features) matrices.

/// Four float lanes (a GCC/Clang vector extension: SSE2 on baseline x86-64,
/// NEON on AArch64) — the register tile of matmul_rows and of the LIF
/// forward's I(t) sum.  Arithmetic on it is lane-wise IEEE float arithmetic.
using F32x4 = float __attribute__((vector_size(16)));

/// Unaligned load/store of 4 consecutive floats, and x in every lane.
inline F32x4 load4(const float* p) noexcept {
  F32x4 v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
inline void store4(float* p, F32x4 v) noexcept { __builtin_memcpy(p, &v, sizeof v); }
inline F32x4 splat4(float x) noexcept { return F32x4{x, x, x, x}; }

/// c[rows×n] += a[rows×k] · b[k×n], serially, in tiles of 4 rows: each
/// element sums k ascending, starting from its c value.  There is no
/// zero-skip: a zero a entry (no spike event) adds a ±0 product.  For finite
/// b that is an exact no-op on any sum that is never −0, and every library
/// caller meets that: its sums start at +0 (a zero-filled c; rounding to
/// nearest, IEEE addition yields −0 only from −0 + −0), or, in
/// forward_dense, the recurrent product accumulates onto X(t)·W_ff, itself
/// such a sum.  So the result equals the zero-skipping k-ascending loop bit
/// for bit.  The tile body of matmul.
void matmul_rows(const float* a, std::size_t rows, std::size_t k, const float* b,
                 std::size_t n, float* c) noexcept;

/// c[m×n] = a[m×k] · b[k×n]; accumulates when `accumulate`, otherwise c is
/// zero-filled first.  One parallel_for index per 4-row tile (matmul_rows).
void matmul(const float* a, std::size_t m, std::size_t k, const float* b, std::size_t n,
            float* c, bool accumulate);

/// Weight-gradient kernel: c[k×n] += Σ_blk a_blkᵀ · b_blk over `blocks`
/// consecutive blocks of m rows (a_blk is m×k, b_blk is m×n).  Every output
/// element takes its terms block by block from the LAST block down, rows
/// ascending within a block, skipping zero a entries — the order of a
/// per-timestep BPTT loop running t = T−1 … 0 — so one call over a whole
/// (T × B × k) cube is bit-identical to T per-timestep calls at any thread
/// count.
void matmul_at_b_accum(const float* a, const float* b, std::size_t blocks, std::size_t m,
                       std::size_t k, std::size_t n, float* c);

/// out[cols×rows] = inᵀ for `in` given as rows×cols (serial).
void transpose(const float* in, std::size_t rows, std::size_t cols, float* out) noexcept;

/// Number of non-zero entries in a float span (spike events).
std::size_t count_nonzero(const float* v, std::size_t n) noexcept;

}  // namespace kernels

/// C = A·B (A: m×k, B: k×n, C: m×n).  When accumulate is true, C += A·B.
void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);

/// Row-wise softmax + cross-entropy against integer labels.
/// logits: (batch × classes); labels: one per row.
/// Returns mean loss; when grad is non-null, writes d(mean loss)/d(logits).
double softmax_cross_entropy(const Tensor& logits, std::span<const std::int32_t> labels,
                             Tensor* grad);

/// Row-wise argmax of a (batch × classes) tensor.
std::vector<std::int32_t> argmax_rows(const Tensor& t);

}  // namespace r4ncl
