// Batched per-timestep active-channel lists: the input form of the
// event-driven LIF forward (RecurrentLifLayer::forward_sparse), built from a
// dense (T × B × C) float batch.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace r4ncl::snn {

/// Batched per-timestep active-channel lists: for every (t, b) row of a
/// (T × B × C) spike cube, the channels with a non-zero value, ascending —
/// CSR over rows in t-major order, so one timestep's rows are contiguous.
///
/// Values are stored alongside the channels so non-binary activations stay
/// exact; `unit_values` marks the common all-spikes-are-1.0f case, which
/// lets consumers use add-only kernels.  Iterating a row's events in stored
/// (ascending-channel) order reproduces kernels::matmul's k-ascending
/// accumulation order (matmul only adds ±0 products for the silent channels
/// between, an exact no-op on its +0-seeded sums), which is what makes the
/// event-driven forward bit-identical to the dense one.
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

}  // namespace r4ncl::snn
