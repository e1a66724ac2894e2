// The 4-layer recurrent SNN of Fig. 6 and its partial-range execution.
//
// Architecture (paper defaults): 700-channel input → three recurrent LIF
// hidden layers (200, 100, 50) → 20-class leaky readout.  "Insertion layer"
// j ∈ [0, num_hidden] names the point where latent-replay data enters the
// network: hidden layers < j are frozen (forward-only), hidden layers ≥ j and
// the readout are the learning layers.  j = num_hidden trains the readout
// alone; j = 0 trains everything (replaying raw input spikes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "snn/layer.hpp"
#include "snn/optimizer.hpp"
#include "snn/readout.hpp"
#include "snn/threshold.hpp"

namespace r4ncl::snn {

/// Static description of an SnnNetwork.
struct NetworkConfig {
  /// layer_sizes[0] is the input width; the rest are hidden widths.
  std::vector<std::size_t> layer_sizes = {700, 200, 100, 50};
  std::size_t num_classes = 20;
  LifParams lif;
  SurrogateParams surrogate;
  float readout_beta = 0.95f;
  /// Feedforward / recurrent init gains (× 1/√fan_in).
  float init_gain = 1.5f;
  float rec_init_gain = 0.5f;
  std::uint64_t seed = 7;
};

/// Result of one training step.
struct StepResult {
  double loss = 0.0;
  std::size_t correct = 0;  // training-batch top-1 hits
};

class SnnNetwork {
 public:
  explicit SnnNetwork(const NetworkConfig& config);

  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_hidden() const noexcept { return hidden_.size(); }
  [[nodiscard]] std::size_t num_classes() const noexcept { return readout_.n_classes(); }

  /// Width of the activation entering hidden layer j (j = num_hidden → the
  /// readout input width).  This is the latent-replay channel count.
  [[nodiscard]] std::size_t insertion_width(std::size_t insertion_layer) const;

  [[nodiscard]] RecurrentLifLayer& hidden(std::size_t i) { return hidden_.at(i); }
  [[nodiscard]] const RecurrentLifLayer& hidden(std::size_t i) const { return hidden_.at(i); }
  [[nodiscard]] LeakyReadout& readout() noexcept { return readout_; }
  [[nodiscard]] const LeakyReadout& readout() const noexcept { return readout_; }

  /// Runs hidden layers [from, to) over x (spike cube at layer `from`'s
  /// input) and returns the spike cube entering layer `to`.  to = num_hidden
  /// yields the readout input.  Evaluation only (no caches kept).
  [[nodiscard]] Tensor run_hidden(const Tensor& x, std::size_t from, std::size_t to,
                                  const ThresholdPolicy& policy,
                                  SpikeOpStats* stats = nullptr) const;

  /// Full forward from hidden layer `from` through the readout → logits.
  [[nodiscard]] Tensor forward_logits(const Tensor& x, std::size_t from,
                                      const ThresholdPolicy& policy,
                                      SpikeOpStats* stats = nullptr) const;

  /// One BPTT training step on hidden layers [from, num_hidden) plus the
  /// readout.  `x` is the spike cube at the insertion point, `labels` one
  /// per batch row.  Returns the batch loss and top-1 hits.  When
  /// `row_correct` is non-null it is resized to the batch and filled with
  /// each row's pre-update top-1 hit (1 = correct) — the per-sample outcome
  /// signal importance-aware replay feeds back to its buffer.
  StepResult train_step(const Tensor& x, std::span<const std::int32_t> labels,
                        std::size_t from, const ThresholdPolicy& policy,
                        AdamOptimizer& optimizer, float lr, SpikeOpStats* stats = nullptr,
                        std::vector<std::uint8_t>* row_correct = nullptr);

  /// Deep copy (fresh optimizer state required afterwards).
  [[nodiscard]] SnnNetwork clone() const { return *this; }

  /// Writes the network as one section of a checkpoint.  The format carries
  /// an architecture header (layer sizes + class count); load() verifies it
  /// against this network and throws a pinned "architecture mismatch" Error
  /// before touching any weight.
  void save(BinaryWriter& out) const;
  void load(BinaryReader& in);

 private:
  NetworkConfig config_;
  std::vector<RecurrentLifLayer> hidden_;
  LeakyReadout readout_;
};

}  // namespace r4ncl::snn
