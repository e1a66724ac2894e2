// Threshold policies: fixed Vthr, statically rescaled Vthr, and the paper's
// adaptive spike-timing controller (Alg. 1, lines 10–17 / 25–30).
//
// Adaptive rule, evaluated once per `adjust_interval` timesteps over the
// spikes observed since the previous adjustment:
//   spikes occurred:  Vthr = base + gain · (Tstep − avg_spike_time)
//   no spikes:        Vthr = 1 / (1 + exp(−decay · t))      (sigmoidal decay)
// with paper constants base = 1, gain = 0.01, decay = 0.001,
// adjust_interval = 5.  "Spike timing" is the timestep index of each emitted
// spike; the average is taken over the adjustment window.
#pragma once

#include <cstddef>
#include <cstdint>

namespace r4ncl::snn {

/// Which threshold behaviour a forward pass should use.
enum class ThresholdMode : std::uint8_t {
  kFixed,     // constant Vthr = fixed_value
  kAdaptive,  // Alg. 1 controller
};

/// Value-type policy handed to layer forward passes.
struct ThresholdPolicy {
  ThresholdMode mode = ThresholdMode::kFixed;
  /// Constant threshold for kFixed, and the `base` of the adaptive rule.
  float fixed_value = 1.0f;
  /// Adaptive-rule constants (paper values).
  int adjust_interval = 5;
  float gain = 0.01f;
  float decay = 0.001f;
  /// Total timesteps Tstep of the sequences this policy will see; required
  /// for the adaptive rule (enters the "Tstep − avg_spike_time" term).
  int total_timesteps = 0;

  /// Convenience factories.
  static ThresholdPolicy fixed(float v) {
    ThresholdPolicy p;
    p.mode = ThresholdMode::kFixed;
    p.fixed_value = v;
    return p;
  }
  static ThresholdPolicy adaptive(int total_timesteps, float base = 1.0f,
                                  int adjust_interval = 5, float gain = 0.01f,
                                  float decay = 0.001f) {
    ThresholdPolicy p;
    p.mode = ThresholdMode::kAdaptive;
    p.fixed_value = base;
    p.adjust_interval = adjust_interval;
    p.gain = gain;
    p.decay = decay;
    p.total_timesteps = total_timesteps;
    return p;
  }
};

/// Per-sequence mutable state of the adaptive controller.  One instance per
/// layer per forward pass; cheap to construct.
class ThresholdState {
 public:
  explicit ThresholdState(const ThresholdPolicy& policy) noexcept;

  /// Threshold to apply at timestep t.  Must be called with increasing t.
  float threshold_at(int t) noexcept;

  /// End of the θ window that starts at t: threshold_at returns one value
  /// over [t, window_end(t, timesteps)), so the spikes of those steps may be
  /// observe()d after the window.  `timesteps` for a fixed θ or a rule that
  /// never adjusts (adjust_interval <= 0), else the next adjustment boundary
  /// after t, capped at `timesteps`.
  [[nodiscard]] int window_end(int t, int timesteps) const noexcept;

  /// Reports the spikes emitted at timestep t (count and sum of their
  /// timestep indices, i.e. count·t for a single step).
  void observe(int t, std::size_t spike_count) noexcept;

  /// Current threshold value without advancing (for inspection/tests).
  [[nodiscard]] float current() const noexcept { return current_; }

 private:
  ThresholdPolicy policy_;
  float current_;
  // Spikes accumulated since the previous adjustment boundary.
  std::size_t window_spikes_ = 0;
  double window_time_sum_ = 0.0;
};

}  // namespace r4ncl::snn
