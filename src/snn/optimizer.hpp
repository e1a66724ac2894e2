// First-order optimizers for the SNN parameters.
//
// Moment state is keyed by a stable *parameter path* (e.g. "readout.w",
// "hidden1.w_ff") so it survives a checkpoint/restore cycle: a reloaded
// network allocates at different addresses, so a storage-address key would
// make warm resume impossible.  The learning rate is passed per step() so the
// continual-learning phase can use η_cl = η_pre / 100 (paper Sec. III-B)
// without rebuilding optimizer state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "tensor/tensor.hpp"
#include "util/serialize.hpp"

namespace r4ncl::snn {

/// Adam hyper-parameters (defaults follow Kingma & Ba).
struct AdamParams {
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
  /// Gradients are clipped elementwise to ±clip before the update (0 = off).
  float grad_clip = 5.0f;
};

/// Adam with per-parameter first/second-moment state.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(const AdamParams& params = {}) : params_(params) {}

  /// Applies one Adam update to `param` given `grad`, with moment state
  /// keyed by the stable parameter path `key` — the persistable form every
  /// run-engine call site uses, so checkpointed moments reattach to the
  /// right tensors on resume.
  void step(std::string_view key, Tensor& param, const Tensor& grad, float lr);

  /// Number of parameter tensors with live moment state.
  [[nodiscard]] std::size_t num_states() const noexcept { return states_.size(); }

  [[nodiscard]] const AdamParams& params() const noexcept { return params_; }

  /// Serializes every (key → m, v, t) entry, sorted by key so the bytes are
  /// deterministic.  load() replaces all state; a later step() with a loaded
  /// key verifies the stored moment shape against the live parameter.
  void save(BinaryWriter& out) const;
  void load(BinaryReader& in);

 private:
  struct State {
    Tensor m;
    Tensor v;
    std::int64_t t = 0;
  };
  AdamParams params_;
  std::unordered_map<std::string, State> states_;
};

}  // namespace r4ncl::snn
