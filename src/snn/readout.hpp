// Non-spiking leaky readout layer (Fig. 6, rightmost stage).
//
// The readout integrates incoming spikes into per-class membrane traces and
// the classifier output is the time-mean of those traces:
//     V(t) = β_out·V(t−1) + X(t)·W,      logits = (1/T)·Σ_t V(t)
// The leaky trace weights early evidence more heavily (a spike at time t
// contributes Σ_{t'≥t} β^{t'−t}), matching the readout commonly used for
// SHD-style temporal classification; the 1/T normalisation keeps the logit
// scale — and therefore the softmax temperature — independent of the
// timestep setting, so T = 100 and T* = 40 deployments are directly
// comparable.
#pragma once

#include "snn/layer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace r4ncl::snn {

class LeakyReadout {
 public:
  LeakyReadout(std::size_t n_in, std::size_t n_classes, float beta, Rng& rng,
               float gain = 1.0f);

  [[nodiscard]] std::size_t n_in() const noexcept { return n_in_; }
  [[nodiscard]] std::size_t n_classes() const noexcept { return n_classes_; }
  [[nodiscard]] float beta() const noexcept { return beta_; }

  /// Forward over a (T × B × n_in) spike cube → (B × classes) logits.
  Tensor forward(const Tensor& x, SpikeOpStats* stats) const;

  /// Backward from ∂L/∂logits; accumulates dW and, when non-null, writes
  /// ∂L/∂X.  `x` must be the tensor passed to forward.
  void backward(const Tensor& x, const Tensor& d_logits, Tensor* d_in, SpikeOpStats* stats);

  void zero_grad();

  Tensor& w() noexcept { return w_; }
  const Tensor& w() const noexcept { return w_; }
  Tensor& grad_w() noexcept { return d_w_; }
  const Tensor& grad_w() const noexcept { return d_w_; }

  void save(BinaryWriter& out) const;
  void load(BinaryReader& in);

 private:
  std::size_t n_in_;
  std::size_t n_classes_;
  float beta_;
  Tensor w_;    // (n_in × classes)
  Tensor d_w_;  // gradient accumulator
};

}  // namespace r4ncl::snn
