// Batched per-timestep active-channel lists: the input form of the
// event-driven LIF forward (RecurrentLifLayer::forward), built from a dense
// (T × B × C) 0/1 spike cube.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace r4ncl::snn {

/// Batched per-timestep active-channel lists: for every (t, b) row of a
/// (T × B × C) spike cube, the channels that spike, ascending — CSR over
/// rows in t-major order, so one timestep's rows are contiguous.
///
/// Every event is a 1.0f spike, so consumers sum weight rows without a
/// multiply.  Iterating a row's events in stored (ascending-channel) order
/// reproduces the k-ascending accumulation order of a dense X(t)·W product
/// (which only adds ±0 products for the silent channels between, an exact
/// no-op on its +0-seeded sums), which is what makes the event-driven
/// forward bit-identical to the dense per-timestep reference.
struct BatchEventList {
  std::size_t timesteps = 0;
  std::size_t batch = 0;
  std::size_t channels = 0;
  /// offsets[t * batch + b] .. offsets[t * batch + b + 1) indexes `channel`
  /// for row (t, b); size timesteps·batch + 1.
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> channel;

  [[nodiscard]] std::size_t num_events() const noexcept { return channel.size(); }
};

/// Builds the event list of a dense (T × B × C) spike cube in one scan.
/// Every 1.0f cell becomes an event; throws Error naming the first cell (in
/// t-major row order, channels ascending) that holds neither 0 nor 1.
BatchEventList events_from_batch(const Tensor& x);

}  // namespace r4ncl::snn
