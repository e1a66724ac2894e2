#include "snn/readout.hpp"

#include <cmath>
#include <vector>

#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace r4ncl::snn {

namespace {
constexpr std::uint32_t kReadoutTag = make_tag("RDOT");
}

LeakyReadout::LeakyReadout(std::size_t n_in, std::size_t n_classes, float beta, Rng& rng,
                           float gain)
    : n_in_(n_in), n_classes_(n_classes), beta_(beta), w_(n_in, n_classes),
      d_w_(n_in, n_classes) {
  R4NCL_CHECK(n_in > 0 && n_classes > 0, "readout dims must be positive");
  w_.fill_normal(rng, gain / std::sqrt(static_cast<float>(n_in)));
}

Tensor LeakyReadout::forward(const Tensor& x, SpikeOpStats* stats) const {
  R4NCL_CHECK(x.rank() == 3 && x.dim(2) == n_in_, "readout input shape mismatch");
  const std::size_t T = x.dim(0), B = x.dim(1);
  const std::size_t bc = B * n_classes_;
  // I(t) = X(t)·W for every t in one matmul over all T·B rows (each row's
  // op order is the per-timestep kernel's), then the leaky integration
  // walks t per element.
  Tensor current(T, B, n_classes_);
  kernels::matmul(x.raw(), T * B, n_in_, w_.raw(), n_classes_, current.raw(), false);
  Tensor logits(B, n_classes_);
  std::vector<float> v(bc, 0.0f);
  const float beta = beta_;
  float* lp = logits.raw();
  for (std::size_t t = 0; t < T; ++t) {
    const float* ip = current.raw() + t * bc;
    for (std::size_t i = 0; i < bc; ++i) {
      v[i] = beta * v[i] + ip[i];
      lp[i] += v[i];
    }
  }
  if (stats != nullptr) {
    const std::size_t events = kernels::count_nonzero(x.raw(), x.size());
    stats->synops += static_cast<std::uint64_t>(events) * n_classes_;
    stats->neuron_updates += static_cast<std::uint64_t>(T) * bc;
    stats->timestep_slots += static_cast<std::uint64_t>(T) * B;
  }
  // Time-mean normalisation (see header): keeps the softmax temperature
  // independent of T.
  const float inv_t = 1.0f / static_cast<float>(T);
  for (auto& l : logits.values()) l *= inv_t;
  return logits;
}

void LeakyReadout::backward(const Tensor& x, const Tensor& d_logits, Tensor* d_in,
                            SpikeOpStats* stats) {
  R4NCL_CHECK(x.rank() == 3 && x.dim(2) == n_in_, "readout input shape mismatch");
  const std::size_t T = x.dim(0), B = x.dim(1);
  R4NCL_CHECK(d_logits.rank() == 2 && d_logits.rows() == B && d_logits.cols() == n_classes_,
              "d_logits shape mismatch");
  if (d_in != nullptr) {
    R4NCL_CHECK(d_in->same_shape(x), "d_in shape mismatch");
  }
  // logits = (1/T)·Σ_t V(t) with V(t) = β V(t−1) + I(t)  ⇒
  // ∂L/∂I(t) = (1/T)·Σ_{t'≥t} β^{t'−t} ∂L/∂logits ≡ c(t), built backward:
  // c(T−1) = d_logits/T; c(t) = d_logits/T + β·c(t+1).  c is kept for every
  // t so dW and dX run after the recurrence, one pass each over all T·B rows.
  const std::size_t bc = B * n_classes_;
  Tensor c(T, B, n_classes_);
  const float inv_t = 1.0f / static_cast<float>(T);
  const float beta = beta_;
  const float* gp = d_logits.raw();
  const std::vector<float> zero(bc, 0.0f);  // c(T)
  for (std::size_t ti = T; ti-- > 0;) {
    float* cp = c.raw() + ti * bc;
    const float* next = ti + 1 < T ? cp + bc : zero.data();
    for (std::size_t i = 0; i < bc; ++i) cp[i] = gp[i] * inv_t + beta * next[i];
  }
  // dW += Σ_t X(t)ᵀ·c(t), t descending — the per-timestep accumulation order.
  kernels::matmul_at_b_accum(x.raw(), c.raw(), T, B, n_in_, n_classes_, d_w_.raw());
  std::uint64_t bwd_ops = static_cast<std::uint64_t>(T) * B * n_in_ * n_classes_;
  if (d_in != nullptr) {
    // dX = c·Wᵀ against the transposed copy (register-tiled kernels::matmul).
    Tensor w_t(n_classes_, n_in_);
    kernels::transpose(w_.raw(), n_in_, n_classes_, w_t.raw());
    kernels::matmul(c.raw(), T * B, n_classes_, w_t.raw(), n_in_, d_in->raw(), false);
    bwd_ops *= 2;
  }
  if (stats != nullptr) stats->backward_synops += bwd_ops;
}

void LeakyReadout::zero_grad() { d_w_.zero(); }

void LeakyReadout::save(BinaryWriter& out) const {
  out.write_tag(kReadoutTag);
  out.write_u64(n_in_);
  out.write_u64(n_classes_);
  out.write_f32(beta_);
  out.write_f32_vector({w_.values().begin(), w_.values().end()});
}

void LeakyReadout::load(BinaryReader& in) {
  in.expect_tag(kReadoutTag);
  const std::size_t n_in = in.read_u64();
  const std::size_t n_classes = in.read_u64();
  R4NCL_CHECK(n_in == n_in_ && n_classes == n_classes_, "readout shape mismatch");
  beta_ = in.read_f32();
  const auto w = in.read_f32_vector();
  R4NCL_CHECK(w.size() == w_.size(), "readout weight size mismatch");
  std::copy(w.begin(), w.end(), w_.values().begin());
}

}  // namespace r4ncl::snn
