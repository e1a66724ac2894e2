// Synthetic Spiking-Heidelberg-Digits-like dataset generator.
//
// The real SHD dataset (Cramer et al., 2020) encodes spoken digits through a
// cochlea model into 700 spike channels over ~1 s.  Its salient structure is
// a handful of *formant-like ridges*: contiguous channel bands whose centre
// drifts over time, class-identified by where the ridges start, how fast they
// drift and when they are active.
//
// This generator reproduces exactly that structure synthetically (the real
// files are unavailable offline): each class owns a seeded
// set of channel–time Gaussian ridges; samples draw Bernoulli spikes from the
// class rate field with per-sample temporal jitter, channel offset and rate
// variation, plus uniform background noise.  The result is a 20-class,
// 700-channel, 100-timestep event dataset that (a) a recurrent SNN can learn,
// (b) degrades under timestep reduction the same way real event data does,
// and (c) exercises every code path of the replay methodology.
#pragma once

#include <cstdint>
#include <vector>

#include "data/spike_data.hpp"
#include "util/rng.hpp"

namespace r4ncl::data {

/// Generator parameters.  Defaults mirror the SHD geometry used by the paper
/// (700 channels, 20 classes, 100 native timesteps).
///
/// Classes are *temporally* coded by default: ridge channel positions come
/// from a pool shared across classes (so channel identity alone cannot
/// separate classes), while onset times, durations, drift velocities and the
/// ridge order are class-specific.  This mirrors spoken digits through a
/// cochleagram — all digits excite similar frequency bands; *when* and *how*
/// the bands move carries the word — and it is what makes timestep reduction
/// genuinely lossy (paper Sec. III-A).
struct ShdSynthParams {
  std::size_t channels = 700;
  std::size_t classes = 20;
  std::size_t timesteps = 100;
  /// Ridges (formant trajectories) per class.
  int ridges_per_class = 4;
  /// Size of the shared channel-position pool.
  int position_pool = 10;
  /// Fraction of ridges whose centre comes from the shared pool (the rest
  /// are class-specific positions).  1.0 = fully temporally coded.
  double shared_position_fraction = 1.0;
  /// Gaussian channel width of a ridge.
  double ridge_width = 22.0;
  /// Peak Bernoulli spike rate at a ridge centre.
  double ridge_peak_rate = 0.40;
  /// Background (noise) spike rate per cell.
  double background_rate = 0.008;
  /// Std-dev of per-sample temporal jitter, in timesteps.
  double time_jitter = 2.5;
  /// Std-dev of per-sample channel offset.
  double channel_jitter = 8.0;
  /// Std-dev of per-sample multiplicative rate variation.
  double rate_jitter = 0.12;
  /// Seed defining the class prototypes (ridge layouts).
  std::uint64_t seed = 42;
};

/// One formant-like ridge of a class prototype.
struct Ridge {
  double start_channel = 0.0;  // centre channel at t_on
  double velocity = 0.0;       // channels per timestep (may be negative)
  double t_on = 0.0;           // activation window start (timesteps)
  double t_off = 0.0;          // activation window end
  double rate_scale = 1.0;     // relative intensity of this ridge
};

/// Deterministic synthetic SHD generator.  Prototypes are fixed by the seed;
/// sample-level randomness comes from the Rng passed to make_sample, so a
/// dataset is fully reproducible from (params, dataset seed).
class SyntheticShdGenerator {
 public:
  explicit SyntheticShdGenerator(const ShdSynthParams& params);

  [[nodiscard]] const ShdSynthParams& params() const noexcept { return params_; }

  /// Ridge prototypes of one class (exposed for tests/inspection).
  [[nodiscard]] const std::vector<Ridge>& class_prototype(std::int32_t class_id) const;

  /// Draws one sample of the given class.
  [[nodiscard]] Sample make_sample(std::int32_t class_id, Rng& rng) const;

  /// Draws `per_class` samples of every class in [0, classes); sample order is
  /// class-major.  `seed` controls the draw (independent of prototype seed).
  [[nodiscard]] Dataset make_dataset(std::size_t per_class, std::uint64_t seed) const;

  /// Draws `per_class` samples of the listed classes only.
  [[nodiscard]] Dataset make_dataset(std::span<const std::int32_t> classes,
                                     std::size_t per_class, std::uint64_t seed) const;

 private:
  ShdSynthParams params_;
  std::vector<std::vector<Ridge>> prototypes_;  // [class][ridge]
};

}  // namespace r4ncl::data
