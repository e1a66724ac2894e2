#include "snn/threshold.hpp"

#include <algorithm>
#include <cmath>

namespace r4ncl::snn {

ThresholdState::ThresholdState(const ThresholdPolicy& policy) noexcept
    : policy_(policy), current_(policy.fixed_value) {}

float ThresholdState::threshold_at(int t) noexcept {
  if (policy_.mode == ThresholdMode::kFixed) return policy_.fixed_value;
  // Adjust only on interval boundaries (Alg. 1 line 10); between boundaries
  // the previous value persists.
  if (policy_.adjust_interval > 0 && t % policy_.adjust_interval == 0) {
    if (window_spikes_ > 0) {
      const double avg_spike_time =
          window_time_sum_ / static_cast<double>(window_spikes_);
      // Alg. 1 line 13: Vthr = 1 + 0.01 (Tstep − avg_spike_time).  Early
      // spikes (small avg time) push the threshold up; late spikes pull it
      // toward the base.
      current_ = policy_.fixed_value +
                 policy_.gain * static_cast<float>(policy_.total_timesteps - avg_spike_time);
    } else {
      // Alg. 1 line 16: sigmoidal decay toward ~0.5 when the layer is silent,
      // making neurons easier to fire under sparse (reduced-timestep) input.
      current_ = 1.0f / (1.0f + std::exp(-policy_.decay * static_cast<float>(t)));
    }
    window_spikes_ = 0;
    window_time_sum_ = 0.0;
  }
  return current_;
}

int ThresholdState::window_end(int t, int timesteps) const noexcept {
  const int interval = policy_.adjust_interval;
  if (policy_.mode == ThresholdMode::kFixed || interval <= 0) return timesteps;
  const long long boundary = static_cast<long long>(t) + interval - t % interval;
  return static_cast<int>(std::min<long long>(boundary, timesteps));
}

void ThresholdState::observe(int t, std::size_t spike_count) noexcept {
  if (policy_.mode == ThresholdMode::kFixed || spike_count == 0) return;
  window_spikes_ += spike_count;
  window_time_sum_ += static_cast<double>(spike_count) * static_cast<double>(t);
}

}  // namespace r4ncl::snn
