// Finite-difference validation of the manual BPTT implementation.
//
// The hard spike function is non-differentiable, so these tests run the
// layer's weights through the dense reference forward in SpikeMode::kSoft
// (reference_forward.hpp), which uses the continuous soft_spike whose
// analytic derivative equals the fast-sigmoid surrogate.
// With detach_reset = false the backward pass then computes the exact
// gradient of the (smooth) forward function, and central finite differences
// must agree to first order.
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "reference_forward.hpp"
#include "snn/layer.hpp"
#include "snn/readout.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace r4ncl::snn {
namespace {

constexpr float kFdStep = 2e-3f;
constexpr double kRelTol = 4e-2;
constexpr double kAbsTol = 2e-4;

LifParams soft_lif() {
  LifParams lif;
  lif.beta = 0.9f;
  lif.detach_reset = false;  // full gradient so FD matches
  lif.recurrent = true;
  return lif;
}

SurrogateParams smooth_surrogate() {
  // A gentle slope keeps the soft forward well-conditioned for FD.
  return {SurrogateKind::kFastSigmoid, 2.0f};
}

Tensor random_spikes(std::size_t T, std::size_t B, std::size_t N, double p, Rng& rng) {
  Tensor x(T, B, N);
  for (auto& v : x.values()) v = rng.bernoulli(p) ? 1.0f : 0.0f;
  return x;
}

/// Weighted-sum loss over the layer output: L = Σ c ⊙ S.  The weights c act
/// as the upstream gradient, exercising every output element.
struct LayerLossFixture {
  LayerLossFixture()
      : rng(123),
        layer(4, 3, soft_lif(), smooth_surrogate(), rng, 1.5f, 0.8f),
        x(random_spikes(6, 2, 4, 0.45, rng)),
        coeff(6, 2, 3) {
    for (auto& v : coeff.values()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  double loss() {
    const Tensor out = reference_forward(layer, x, SpikeMode::kSoft,
                                         ThresholdPolicy::fixed(0.6f), nullptr, nullptr);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) acc += out(i) * coeff(i);
    return acc;
  }

  /// Analytic gradients via the BPTT backward pass.
  void analytic(Tensor& d_in) {
    LayerCache cache;
    (void)reference_forward(layer, x, SpikeMode::kSoft, ThresholdPolicy::fixed(0.6f), &cache,
                            nullptr);
    layer.zero_grad();
    layer.backward(x, cache, coeff, &d_in, nullptr);
  }

  Rng rng;
  RecurrentLifLayer layer;
  Tensor x;
  Tensor coeff;
};

void expect_close(double analytic, double fd, const std::string& what) {
  const double tol = kAbsTol + kRelTol * std::max(std::fabs(analytic), std::fabs(fd));
  EXPECT_NEAR(analytic, fd, tol) << what;
}

TEST(BpttGradcheck, FeedforwardWeights) {
  LayerLossFixture fx;
  Tensor d_in(fx.x.dim(0), fx.x.dim(1), fx.x.dim(2));
  fx.analytic(d_in);
  Tensor& w = fx.layer.w_ff();
  const Tensor grad = fx.layer.grad_w_ff();
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float keep = w(i);
    w(i) = keep + kFdStep;
    const double up = fx.loss();
    w(i) = keep - kFdStep;
    const double down = fx.loss();
    w(i) = keep;
    const double fd = (up - down) / (2.0 * kFdStep);
    expect_close(grad(i), fd, "w_ff[" + std::to_string(i) + "]");
  }
}

TEST(BpttGradcheck, RecurrentWeights) {
  LayerLossFixture fx;
  Tensor d_in(fx.x.dim(0), fx.x.dim(1), fx.x.dim(2));
  fx.analytic(d_in);
  Tensor& w = fx.layer.w_rec();
  const Tensor grad = fx.layer.grad_w_rec();
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float keep = w(i);
    w(i) = keep + kFdStep;
    const double up = fx.loss();
    w(i) = keep - kFdStep;
    const double down = fx.loss();
    w(i) = keep;
    const double fd = (up - down) / (2.0 * kFdStep);
    expect_close(grad(i), fd, "w_rec[" + std::to_string(i) + "]");
  }
}

TEST(BpttGradcheck, InputGradient) {
  LayerLossFixture fx;
  Tensor d_in(fx.x.dim(0), fx.x.dim(1), fx.x.dim(2));
  fx.analytic(d_in);
  // Perturb a sampling of input cells (inputs are "spikes" but the math is
  // defined for real values, so FD is legitimate).
  Rng pick(7);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t i = pick.uniform_index(fx.x.size());
    const float keep = fx.x(i);
    fx.x(i) = keep + kFdStep;
    const double up = fx.loss();
    fx.x(i) = keep - kFdStep;
    const double down = fx.loss();
    fx.x(i) = keep;
    const double fd = (up - down) / (2.0 * kFdStep);
    expect_close(d_in(i), fd, "x[" + std::to_string(i) + "]");
  }
}

TEST(BpttGradcheck, DetachedResetDropsResetPath) {
  // With detach_reset = true the backward pass must ignore the reset path;
  // verify the gradients differ from the full gradient when the layer spikes.
  Rng rng(5);
  LifParams full = soft_lif();
  LifParams detached = full;
  detached.detach_reset = true;

  RecurrentLifLayer layer_full(3, 2, full, smooth_surrogate(), rng);
  Rng rng2(5);
  RecurrentLifLayer layer_detached(3, 2, detached, smooth_surrogate(), rng2);
  // Identical weights by construction (same seed).
  ASSERT_EQ(layer_full.w_ff()(0), layer_detached.w_ff()(0));

  Rng data_rng(9);
  const Tensor x = random_spikes(5, 1, 3, 0.6, data_rng);
  Tensor d_out(5, 1, 2);
  d_out.fill(1.0f);

  LayerCache cache_full, cache_detached;
  (void)reference_forward(layer_full, x, SpikeMode::kSoft, ThresholdPolicy::fixed(0.5f),
                          &cache_full, nullptr);
  (void)reference_forward(layer_detached, x, SpikeMode::kSoft, ThresholdPolicy::fixed(0.5f),
                          &cache_detached, nullptr);
  layer_full.zero_grad();
  layer_detached.zero_grad();
  layer_full.backward(x, cache_full, d_out, nullptr, nullptr);
  layer_detached.backward(x, cache_detached, d_out, nullptr, nullptr);

  double diff = 0.0;
  for (std::size_t i = 0; i < layer_full.grad_w_ff().size(); ++i) {
    diff += std::fabs(layer_full.grad_w_ff()(i) - layer_detached.grad_w_ff()(i));
  }
  EXPECT_GT(diff, 1e-6) << "reset path should contribute gradient in soft mode";
}

/// End-to-end gradcheck through layer → readout → cross-entropy, i.e. the
/// exact composition used by SnnNetwork::train_step.
TEST(BpttGradcheck, ThroughReadoutAndLoss) {
  Rng rng(31);
  RecurrentLifLayer layer(4, 3, soft_lif(), smooth_surrogate(), rng);
  LeakyReadout readout(3, 2, 0.9f, rng);
  Rng data_rng(17);
  const Tensor x = random_spikes(5, 2, 4, 0.5, data_rng);
  const std::int32_t labels_arr[] = {0, 1};
  const std::span<const std::int32_t> labels(labels_arr, 2);
  const ThresholdPolicy policy = ThresholdPolicy::fixed(0.6f);

  auto loss_fn = [&]() {
    const Tensor spikes =
        reference_forward(layer, x, SpikeMode::kSoft, policy, nullptr, nullptr);
    const Tensor logits = readout.forward(spikes, nullptr);
    return softmax_cross_entropy(logits, labels, nullptr);
  };

  // Analytic gradients.
  LayerCache cache;
  const Tensor spikes = reference_forward(layer, x, SpikeMode::kSoft, policy, &cache, nullptr);
  const Tensor logits = readout.forward(spikes, nullptr);
  Tensor d_logits(logits.rows(), logits.cols());
  (void)softmax_cross_entropy(logits, labels, &d_logits);
  layer.zero_grad();
  readout.zero_grad();
  Tensor d_spikes(spikes.dim(0), spikes.dim(1), spikes.dim(2));
  readout.backward(spikes, d_logits, &d_spikes, nullptr);
  layer.backward(x, cache, d_spikes, nullptr, nullptr);

  // FD over a sample of layer weights and all readout weights.
  Rng pick(3);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t i = pick.uniform_index(layer.w_ff().size());
    float& wref = layer.w_ff()(i);
    const float keep = wref;
    wref = keep + kFdStep;
    const double up = loss_fn();
    wref = keep - kFdStep;
    const double down = loss_fn();
    wref = keep;
    expect_close(layer.grad_w_ff()(i), (up - down) / (2.0 * kFdStep),
                 "w_ff[" + std::to_string(i) + "] through loss");
  }
  for (std::size_t i = 0; i < readout.w().size(); ++i) {
    float& wref = readout.w()(i);
    const float keep = wref;
    wref = keep + kFdStep;
    const double up = loss_fn();
    wref = keep - kFdStep;
    const double down = loss_fn();
    wref = keep;
    expect_close(readout.grad_w()(i), (up - down) / (2.0 * kFdStep),
                 "readout w[" + std::to_string(i) + "]");
  }
}

}  // namespace
}  // namespace r4ncl::snn
