// Binary spike rasters and labelled spike datasets.
//
// A raster is a (timesteps × channels) 0/1 grid — the lingua franca between
// the dataset generator, the compression codec, the latent-replay buffer and
// the SNN training stack (which consumes rasters as float batches).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace r4ncl::data {

/// Dense binary spike raster (row-major: time outer, channel inner).
struct SpikeRaster {
  std::size_t timesteps = 0;
  std::size_t channels = 0;
  /// bits[t * channels + c] ∈ {0, 1}.
  std::vector<std::uint8_t> bits;

  SpikeRaster() = default;
  SpikeRaster(std::size_t t, std::size_t c) : timesteps(t), channels(c), bits(t * c, 0) {}

  [[nodiscard]] std::uint8_t at(std::size_t t, std::size_t c) const {
    return bits[t * channels + c];
  }
  void set(std::size_t t, std::size_t c, bool v) {
    bits[t * channels + c] = v ? 1 : 0;
  }

  /// Total number of spikes: the nonzero cells, whatever value they hold.
  [[nodiscard]] std::size_t spike_count() const noexcept;

  /// Spikes per (timestep × channel) cell, in [0, 1].
  [[nodiscard]] double density() const noexcept;

  [[nodiscard]] bool operator==(const SpikeRaster& other) const = default;
};

/// One labelled example.
struct Sample {
  SpikeRaster raster;
  std::int32_t label = 0;
};

/// A dataset is a flat list of samples (order matters only for batching).
using Dataset = std::vector<Sample>;

/// How to map a raster onto a different number of timesteps.
enum class TimeRescaleMethod {
  kGroupOr,    // OR over each source bin group — preserves every spike burst
  kSubsample,  // keep one representative source step per target step
};

/// Canonical lowercase name.
[[nodiscard]] constexpr std::string_view to_string(TimeRescaleMethod method) noexcept {
  constexpr std::string_view kNames[] = {"group_or", "subsample"};
  return kNames[static_cast<std::size_t>(method)];
}

/// Re-bins `raster` onto `new_timesteps` steps.  Used to run the continual-
/// learning phase at a reduced timestep (paper Sec. III-A): target step t*
/// covers source steps [t*·T/T*, (t*+1)·T/T*).
SpikeRaster time_rescale(const SpikeRaster& raster, std::size_t new_timesteps,
                         TimeRescaleMethod method = TimeRescaleMethod::kGroupOr);

/// Rescales every sample of a dataset.
Dataset time_rescale(const Dataset& dataset, std::size_t new_timesteps,
                     TimeRescaleMethod method = TimeRescaleMethod::kGroupOr);

/// Builds the (T × B × channels) float batch consumed by the SNN stack from
/// the given sample indices.  All selected samples must share raster shape.
Tensor make_batch(const Dataset& dataset, std::span<const std::size_t> indices);

/// Writes `raster` into column `b` of a (T × B × channels) float batch, 1.0f
/// for every nonzero cell (one spike, as spike_count() counts it) — the
/// single-sample building block make_batch(), raster_to_batch() and the
/// streaming trainer path assemble batches from, so all produce
/// bit-identical 0/1 tensors.
void fill_batch_column(Tensor& batch, std::size_t b, const SpikeRaster& raster);

/// Makes `batch` a (timesteps × batch_count × channels) cube, reusing its
/// storage when the shape already matches (fill_batch_column overwrites every
/// cell of a column, so stale contents cannot leak through).  Returns true
/// when a fresh allocation was made; every allocation also bumps
/// batch_tensor_allocations() so tests can pin the hot path's scratch reuse.
bool ensure_batch_shape(Tensor& batch, std::size_t timesteps, std::size_t batch_count,
                        std::size_t channels);

/// Process-wide count of batch-scratch tensor (re)allocations made through
/// ensure_batch_shape() — the trainer's allocation-regression probe.
std::uint64_t batch_tensor_allocations() noexcept;

/// Converts a single raster to a (T × 1 × channels) batch (fill_batch_column
/// into column 0).
Tensor raster_to_batch(const SpikeRaster& raster);

/// Converts one batch entry back to a binary raster (values > 0.5 → spike).
SpikeRaster batch_to_raster(const Tensor& batch, std::size_t batch_index);

/// Selects up to `per_class` samples of each listed class (deterministic:
/// first occurrences in dataset order).
Dataset take_per_class(const Dataset& dataset, std::span<const std::int32_t> classes,
                       std::size_t per_class);

/// Classes present in the dataset, sorted ascending.
std::vector<std::int32_t> classes_of(const Dataset& dataset);

}  // namespace r4ncl::data
