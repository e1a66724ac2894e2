// Evaluation conditions for the class-incremental scenario.
#pragma once

#include "data/spike_data.hpp"
#include "snn/threshold.hpp"

namespace r4ncl::metrics {

/// Evaluation conditions: the deployed configuration of a method (its
/// timestep setting and threshold policy) must also be used at test time.
/// batch_size is the evaluation blocking; the adaptive threshold couples the
/// samples of a batch, so scores depend on it.
struct EvalSettings {
  std::size_t timesteps = 100;  // test rasters are rescaled to this
  data::TimeRescaleMethod rescale = data::TimeRescaleMethod::kGroupOr;
  snn::ThresholdPolicy policy = snn::ThresholdPolicy::fixed(1.0f);
  std::size_t batch_size = 32;
};

}  // namespace r4ncl::metrics
