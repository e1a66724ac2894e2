// Address-Event Representation (AER) storage of spike rasters.
//
// Neuromorphic sensors and chips exchange spikes as (timestep, channel)
// event tuples rather than dense bitmaps.  For sparse rasters AER is the
// smaller encoding; for dense rasters bit-packing wins.  The latent-replay
// buffer's bitmap format (bitpack.hpp) is what the paper's memory accounting
// uses; this module provides the AER alternative plus the crossover analysis
// (aer_is_smaller) so deployments can pick per-layer.
//
// Encoding: events sorted by (t, channel); timestep stored as a delta from
// the previous event's timestep (u8 with 255-escape), channel as u16.
//
// The header also defines BatchEventList, the batched per-timestep
// active-channel list the SNN hot path consumes (snn::RecurrentLifLayer's
// event-driven forward), built from a dense (T × B × C) float batch.
#pragma once

#include <cstdint>
#include <vector>

#include "data/spike_data.hpp"
#include "tensor/tensor.hpp"

namespace r4ncl::compress {

/// AER-encoded raster.
struct AerRaster {
  std::uint32_t timesteps = 0;
  std::uint32_t channels = 0;
  /// Encoded event stream (delta-t / channel pairs).
  std::vector<std::uint8_t> payload;
  /// Number of events (spikes) encoded.
  std::uint32_t num_events = 0;

  [[nodiscard]] std::size_t payload_bytes() const noexcept { return payload.size(); }
};

/// Encodes a dense raster into the AER event stream.
AerRaster aer_encode(const data::SpikeRaster& raster);

/// Decodes back to a dense raster; exact inverse of aer_encode.
data::SpikeRaster aer_decode(const AerRaster& aer);

/// aer_decode() into a caller-owned raster, reusing its allocation when the
/// geometry already matches — the streaming scratch path (every cell is
/// rewritten, so stale contents cannot leak through).
void aer_decode_into(const AerRaster& aer, data::SpikeRaster& out);

/// Batched per-timestep active-channel lists: for every (t, b) row of a
/// (T × B × C) spike cube, the channels with a non-zero value, ascending —
/// CSR over rows in t-major order, so one timestep's rows are contiguous.
///
/// Values are stored alongside the channels so non-binary activations stay
/// exact; `unit_values` marks the common all-spikes-are-1.0f case, which
/// lets consumers use add-only kernels.  Iterating a row's events in stored
/// (ascending-channel) order reproduces kernels::matmul's zero-skipping
/// accumulation order exactly, which is what makes the event-driven forward
/// bit-identical to the dense one.
struct BatchEventList {
  std::size_t timesteps = 0;
  std::size_t batch = 0;
  std::size_t channels = 0;
  /// offsets[t * batch + b] .. offsets[t * batch + b + 1) indexes `channel`/
  /// `value` for row (t, b); size timesteps·batch + 1.
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> channel;
  std::vector<float> value;
  bool unit_values = true;

  [[nodiscard]] std::size_t num_events() const noexcept { return channel.size(); }
};

/// Builds the event list of a dense (T × B × C) float batch in one scan.
/// Every cell with a non-zero value becomes an event carrying that value.
BatchEventList events_from_batch(const Tensor& x);

/// Bytes the AER encoding needs for a raster of the given geometry/density
/// (without encoding it): events·3 bytes + escape bytes are density-data
/// dependent, so this computes the exact size by encoding-free counting.
std::size_t aer_bytes(const data::SpikeRaster& raster);

/// True when AER storage is smaller than byte-padded bit-packing for this
/// raster — the sparse/dense crossover used for per-layer format selection.
bool aer_is_smaller(const data::SpikeRaster& raster);

}  // namespace r4ncl::compress
