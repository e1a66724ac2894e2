// Supervised training / evaluation loops over spike datasets.
//
// train_supervised drives the pre-training phase (Alg. 1 lines 1–5) and is
// reused by the continual-learning trainers in src/core; evaluate() computes
// Top-1 accuracy from any insertion point, so latent datasets can be scored
// with the same code path as raw input data.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data/spike_data.hpp"
#include "snn/network.hpp"

namespace r4ncl::snn {

/// Options for a supervised training run.
struct TrainOptions {
  std::size_t epochs = 10;
  std::size_t batch_size = 16;
  float lr = 1e-3f;
  /// Hidden-layer index the inputs are injected at (0 = raw input).
  std::size_t insertion_layer = 0;
  ThresholdPolicy policy = ThresholdPolicy::fixed(1.0f);
  SpikeMode mode = SpikeMode::kHard;
  std::uint64_t shuffle_seed = 99;
  bool verbose = false;
  /// Optional per-sample outcome hook: called once per trained sample per
  /// epoch with the sample's source index and its pre-update top-1 error
  /// (0.0 = correct, 1.0 = miss).  This is the trainer→replay-buffer
  /// feedback channel of the importance-aware eviction policies
  /// (core::LatentReplayBuffer::report_outcome); unset costs nothing.
  std::function<void(std::size_t index, float error)> sample_outcome;
};

/// Per-epoch record of a training run.
struct EpochRecord {
  std::size_t epoch = 0;
  double loss = 0.0;
  double train_accuracy = 0.0;
  double wall_seconds = 0.0;
  /// Seconds spent decoding samples + filling batch tensors this epoch.
  /// Assembly is synchronous, so the train loop waits for all of it.
  double assembly_seconds = 0.0;
  SpikeOpStats stats;  // forward+backward work of this epoch
};

/// Per-epoch hook: called after each epoch (e.g. to evaluate held-out sets).
using EpochHook = std::function<void(const EpochRecord&)>;

/// Random-access view over a virtual training set: `size` samples produced
/// on demand.  fetch(i) may return a reference into an internal scratch slot
/// that is only valid until the next fetch — the trainer copies each sample
/// into the batch tensor before fetching the next one, which is what lets a
/// streaming replay source decode one sample at a time instead of
/// materializing the whole set (see core::ReplayStream).
struct SampleSource {
  std::size_t size = 0;
  std::function<const data::Sample&(std::size_t)> fetch;
};

/// Trains `net` on `dataset` (spike cubes at `insertion_layer`).  Returns the
/// per-epoch history.  The caller owns the optimizer so moment state can
/// persist across phases when desired.  Each shuffled minibatch is assembled
/// on the calling thread into one scratch batch reused for the whole run;
/// with the registry armed, every batch records its assembly time once into
/// `pipeline.assemble_seconds` and once into `pipeline.stall_seconds` (the
/// train loop waits for all of it).
std::vector<EpochRecord> train_supervised(SnnNetwork& net, const data::Dataset& dataset,
                                          AdamOptimizer& optimizer, const TrainOptions& options,
                                          const EpochHook& hook = nullptr);

/// train_supervised over a lazily-fetched source.  Bit-identical to the
/// Dataset overload for the same shuffle seed and sample values — the
/// Dataset overload is implemented on top of this one.
std::vector<EpochRecord> train_supervised(SnnNetwork& net, const SampleSource& source,
                                          AdamOptimizer& optimizer, const TrainOptions& options,
                                          const EpochHook& hook = nullptr);

/// Top-1 accuracy of `net` on `dataset` fed at `insertion_layer`.
double evaluate(const SnnNetwork& net, const data::Dataset& dataset,
                std::size_t insertion_layer = 0,
                const ThresholdPolicy& policy = ThresholdPolicy::fixed(1.0f),
                std::size_t batch_size = 32, SpikeOpStats* stats = nullptr);

/// evaluate() over a lazily-fetched source: samples stream one at a time
/// into a single reused scratch batch, so a replay-buffer-backed source is
/// scored without ever materializing the set densely.  Bit-identical to the
/// Dataset overload (which is implemented on top of this one).
double evaluate(const SnnNetwork& net, const SampleSource& source,
                std::size_t insertion_layer = 0,
                const ThresholdPolicy& policy = ThresholdPolicy::fixed(1.0f),
                std::size_t batch_size = 32, SpikeOpStats* stats = nullptr);

}  // namespace r4ncl::snn
