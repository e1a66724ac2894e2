// The dense per-timestep LIF forward: the reference the event-driven
// RecurrentLifLayer::forward must equal bit for bit on 0/1 spikes (outputs,
// caches and SpikeOpStats), and, in soft mode, the smooth forward the BPTT
// finite-difference checks differentiate.
//
// It reads the layer only through its public accessors and computes, per
// timestep, X(t)·W_ff by
// kernels::matmul, then S(t−1)·W_rec added onto it by kernels::matmul_rows
// (both k ascending, the event path's per-element order), and stats by
// count_nonzero rescans.  Unlike the library forward it takes any input
// value, so the gradchecks can perturb inputs and run graded cubes.
#pragma once

#include <algorithm>
#include <cstdint>

#include "snn/layer.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace r4ncl::snn {

/// Spike function of the reference forward.
enum class SpikeMode : std::uint8_t {
  kHard,  // binary spikes Θ(u): the library forward's function
  kSoft,  // continuous h(u) = soft_spike (finite-difference validation)
};

/// Runs `layer` over a (T × B × n_in) cube; returns (T × B × n_out) output
/// spikes, and fills `cache` and `stats` as RecurrentLifLayer::forward does.
inline Tensor reference_forward(const RecurrentLifLayer& layer, const Tensor& x, SpikeMode mode,
                                const ThresholdPolicy& policy, LayerCache* cache,
                                SpikeOpStats* stats) {
  const std::size_t n_in_ = layer.n_in(), n_out_ = layer.n_out();
  const LifParams& lif_ = layer.lif();
  const SurrogateParams& surrogate_ = layer.surrogate();
  const Tensor& w_ff_ = layer.w_ff();
  const Tensor& w_rec_ = layer.w_rec();
  R4NCL_CHECK(x.rank() == 3, "input must be (T × B × n_in)");
  R4NCL_CHECK(x.dim(2) == n_in_, "input feature dim " << x.dim(2) << " != " << n_in_);
  const std::size_t T = x.dim(0), B = x.dim(1);

  Tensor out(T, B, n_out_);
  Tensor v(B, n_out_);        // current membrane
  Tensor prev_s(B, n_out_);   // S(t−1)
  Tensor current(B, n_out_);  // I(t)
  if (cache != nullptr) {
    cache->membrane = Tensor(T, B, n_out_);
    cache->spikes = Tensor(T, B, n_out_);
    cache->theta.assign(T, policy.fixed_value);
  }

  ThresholdState th(policy);
  float theta_prev = policy.fixed_value;  // θ used for the (empty) step −1 reset
  const std::size_t bn = B * n_out_;

  for (std::size_t t = 0; t < T; ++t) {
    const float theta_t = th.threshold_at(static_cast<int>(t));

    // I(t) = X(t)·W_ff (+ S(t−1)·W_rec)
    kernels::matmul(x.slab(t).data(), B, n_in_, w_ff_.raw(), n_out_, current.raw());
    if (lif_.recurrent && t > 0) {
      kernels::matmul_rows(prev_s.raw(), B, n_out_, w_rec_.raw(), n_out_, current.raw());
    }

    // V(t) = β·V(t−1) − θ(t−1)·S(t−1) + I(t);  S(t) = spike(V(t) − θ(t))
    float* vp = v.raw();
    const float* ip = current.raw();
    const float* sp_prev = prev_s.raw();
    float* sp_out = out.slab(t).data();
    std::size_t spike_count = 0;
    for (std::size_t i = 0; i < bn; ++i) {
      const float vt = lif_.beta * vp[i] - theta_prev * sp_prev[i] + ip[i];
      vp[i] = vt;
      const float u = vt - theta_t;
      const float s = mode == SpikeMode::kHard ? hard_spike(u) : soft_spike(u, surrogate_);
      sp_out[i] = s;
      if (s != 0.0f) ++spike_count;
    }
    th.observe(static_cast<int>(t), spike_count);

    if (cache != nullptr) {
      std::copy(vp, vp + bn, cache->membrane.slab(t).data());
      std::copy(sp_out, sp_out + bn, cache->spikes.slab(t).data());
      cache->theta[t] = theta_t;
    }
    if (stats != nullptr) {
      const std::size_t in_events = kernels::count_nonzero(x.slab(t).data(), B * n_in_);
      stats->synops += static_cast<std::uint64_t>(in_events) * n_out_;
      if (lif_.recurrent && t > 0) {
        const std::size_t rec_events = kernels::count_nonzero(sp_prev, bn);
        stats->synops += static_cast<std::uint64_t>(rec_events) * n_out_;
      }
      stats->neuron_updates += bn;
      stats->spikes += spike_count;
      stats->timestep_slots += B;
    }

    std::copy(sp_out, sp_out + bn, prev_s.raw());
    theta_prev = theta_t;
  }
  return out;
}

}  // namespace r4ncl::snn
