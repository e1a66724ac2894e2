// Dense kernels for the SNN forward/backward passes.
//
// Conventions: activations are (batch × features) matrices; weight matrices
// are (in_features × out_features) so the forward pass is Y = X · W.  The
// BPTT gradient terms of a (T × B × features) pass map onto two kernels:
//   dW += Σ_t X(t)ᵀ · dY(t)  (matmul_at_b_accum: all T blocks of B rows in
//                             one call, t descending, rows ascending)
//   dX  = dY · Wᵀ            (matmul / matmul_row against transpose(W): i-k-j
//                             order, so the inner loop vectorises across outputs
//                             while each output still sums k ascending)
// matmul and matmul_at_b_accum parallelise over output rows via parallel_for;
// matmul_row and transpose are serial, for callers already inside a parallel
// loop (or with weight-sized inputs).
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

/// crow[n] += arow[k] · b[k×n] for one row, serially, in i-k-j order: each
/// output sums k ascending and zero arow entries (no spike event) are
/// skipped.  Skipping is an exact no-op on a sum seeded at +0 (for finite b),
/// so into a zeroed crow this equals the unskipped k-ascending dot product
/// bit for bit.  The row body of matmul.
void matmul_row(const float* arow, std::size_t k, const float* b, std::size_t n,
                float* crow) noexcept;

/// c[m×n] = a[m×k] · b[k×n]; accumulates when `accumulate`.
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
