// Recurrent LIF spiking layer with manual backpropagation-through-time.
//
// Discrete-time dynamics (paper Eq. 1–2, soft reset, per-layer recurrence as
// in Fig. 6):
//     I(t) = X(t)·W_ff + S(t−1)·W_rec
//     V(t) = β·V(t−1) − θ(t−1)·S(t−1) + I(t)
//     S(t) = Θ(V(t) − θ(t))
// with V(−1) = S(−1) = 0, X(t) a 0/1 spike raster, and θ(t) supplied by a
// ThresholdPolicy (fixed or the paper's adaptive controller).
//
// Backward: exact BPTT through the above recurrences with the fast-sigmoid
// surrogate standing in for Θ′.  The reset path (−θ·S term) is detached by
// default (LifParams::detach_reset), matching common SNN training practice;
// the non-detached variant exists so finite-difference tests can validate the
// complete gradient of a soft-spike forward (h(V − θ) in place of Θ, the
// soft mode of the dense reference forward in tests/reference_forward.hpp).
// Forward hot path: event-driven — the input cube is turned into
// per-timestep active-channel lists (snn::BatchEventList) once, and I(t) is
// summed straight from the event lists in register tiles: for each strip of
// 16 output columns (4 vector registers) the W_ff rows of the step's input
// events, then the W_rec rows of the previous step's spikes, in ascending
// index order, and each element of I(t) is stored once.  That is the
// per-element order of the dense per-timestep forward (kernels::matmul for
// X(t)·W_ff, then kernels::matmul_rows adding S(t−1)·W_rec, which only add
// ±0 products for the silent channels between), the tests' reference, so
// sparse ≡ dense bit-for-bit.  Fixed and adaptive θ
// share one loop over θ windows, the runs of steps over which
// ThresholdState holds θ constant (ThresholdState::window_end): inside a
// window each batch row walks its steps on one thread (disjoint writes),
// and after it the per-row spike counts, summed in row order, feed
// ThresholdState::observe in t order — threads=N ≡ threads=1.  That is one
// parallel dispatch per pass for a fixed θ and ⌈T / adjust_interval⌉ for the
// adaptive rule (8 at T = 40, interval 5), and synop stats fall out of the
// event list and the spike counts instead of a per-timestep count_nonzero
// rescan.
// Backward hot path: the BPTT recurrence (∂L/∂S, ∂L/∂V, the dV·W_recᵀ and
// reset terms) runs in tiles of 4 batch rows — θ(t) comes from
// LayerCache::theta, so rows are independent under fixed and adaptive
// thresholds and each tile walks all T steps on one thread, forming
// dV(t)·W_recᵀ for its 4 rows with one register-tiled
// kernels::matmul_rows call per step — and dW_ff, dW_rec and dX leave the T
// loop as one pass each over all T·B rows (kernels::matmul_at_b_accum, and
// kernels::matmul against a transposed W_ff).  Every output element keeps
// the per-timestep loop's FP op order (weight gradients: t descending, then
// rows ascending; Wᵀ products: k ascending), so a pass is bit-identical to
// it at any thread count with 4 parallel dispatches instead of up to 5 per
// timestep (pinned against the per-timestep reference in
// tests/test_bptt_reference.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "snn/events.hpp"
#include "snn/surrogate.hpp"
#include "snn/threshold.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace r4ncl::snn {

/// LIF neuron constants shared by all neurons of a layer.
struct LifParams {
  /// Membrane decay per timestep: β = exp(−Δt/τ).
  float beta = 0.95f;
  /// Whether the backward pass ignores the reset path.
  bool detach_reset = true;
  /// Whether the layer has same-layer recurrent weights (Fig. 6).
  bool recurrent = true;
};

/// Event and work counters accumulated by forward/backward passes; the
/// metrics library converts these into modelled latency and energy.
struct SpikeOpStats {
  std::uint64_t synops = 0;           // weight ops triggered by input/recurrent events
  std::uint64_t neuron_updates = 0;   // membrane updates (= T·B·N per layer pass)
  std::uint64_t spikes = 0;           // spikes emitted
  std::uint64_t timestep_slots = 0;   // Σ layers (T·B): per-timestep bookkeeping cost
  std::uint64_t backward_synops = 0;  // gradient-pass weight ops (training only)
  std::uint64_t decompress_bits = 0;  // codec work charged by the replay path

  void add(const SpikeOpStats& other) noexcept {
    synops += other.synops;
    neuron_updates += other.neuron_updates;
    spikes += other.spikes;
    timestep_slots += other.timestep_slots;
    backward_synops += other.backward_synops;
    decompress_bits += other.decompress_bits;
  }

  [[nodiscard]] bool operator==(const SpikeOpStats&) const noexcept = default;
};

/// Per-pass tensors retained for the backward pass.
struct LayerCache {
  Tensor membrane;           // V, (T × B × N)
  Tensor spikes;             // S, (T × B × N)
  std::vector<float> theta;  // θ(t), one per timestep
};

/// One recurrent spiking layer (n_in → n_out).
class RecurrentLifLayer {
 public:
  /// Weights are initialised N(0, gain/√n_in) (feedforward) and
  /// N(0, rec_gain/√n_out) (recurrent).
  RecurrentLifLayer(std::size_t n_in, std::size_t n_out, const LifParams& lif,
                    const SurrogateParams& surrogate, Rng& rng, float gain = 1.5f,
                    float rec_gain = 0.5f);

  [[nodiscard]] std::size_t n_in() const noexcept { return n_in_; }
  [[nodiscard]] std::size_t n_out() const noexcept { return n_out_; }
  [[nodiscard]] const LifParams& lif() const noexcept { return lif_; }
  [[nodiscard]] const SurrogateParams& surrogate() const noexcept { return surrogate_; }

  /// Runs the layer over a (T × B × n_in) 0/1 spike cube on the event path
  /// (see file comment); returns (T × B × n_out) output spikes.  Throws Error
  /// naming the first input cell that is neither 0 nor 1.  When `cache` is
  /// non-null the pass records everything the backward pass needs.  `stats`,
  /// if non-null, accumulates event counts.
  Tensor forward(const Tensor& x, const ThresholdPolicy& policy, LayerCache* cache,
                 SpikeOpStats* stats) const;

  /// BPTT backward.  `x` must be the exact tensor passed to forward, `d_out`
  /// is ∂L/∂S (T × B × n_out).  Accumulates weight gradients internally and,
  /// when `d_in` is non-null, writes ∂L/∂X (same shape as x).  Throws when
  /// x, d_out or the cache (membrane, spikes, θ) disagree on T, B or width.
  void backward(const Tensor& x, const LayerCache& cache, const Tensor& d_out, Tensor* d_in,
                SpikeOpStats* stats);

  /// Zeroes accumulated weight gradients.
  void zero_grad();

  // Parameter / gradient access for the optimizer and for serialization.
  Tensor& w_ff() noexcept { return w_ff_; }
  const Tensor& w_ff() const noexcept { return w_ff_; }
  Tensor& w_rec() noexcept { return w_rec_; }
  const Tensor& w_rec() const noexcept { return w_rec_; }
  Tensor& grad_w_ff() noexcept { return d_w_ff_; }
  const Tensor& grad_w_ff() const noexcept { return d_w_ff_; }
  Tensor& grad_w_rec() noexcept { return d_w_rec_; }
  const Tensor& grad_w_rec() const noexcept { return d_w_rec_; }

  void save(BinaryWriter& out) const;
  void load(BinaryReader& in);

 private:
  /// The event-driven, row-parallel pass: one dispatch per θ window.
  Tensor forward_sparse(const BatchEventList& events, const ThresholdPolicy& policy,
                        LayerCache* cache, SpikeOpStats* stats) const;

  std::size_t n_in_;
  std::size_t n_out_;
  LifParams lif_;
  SurrogateParams surrogate_;
  Tensor w_ff_;    // (n_in × n_out)
  Tensor w_rec_;   // (n_out × n_out); empty when !lif_.recurrent
  Tensor d_w_ff_;  // gradient accumulators
  Tensor d_w_rec_;
};

}  // namespace r4ncl::snn
