#include "data/shd_synth.hpp"

#include <cmath>

#include "util/error.hpp"

namespace r4ncl::data {

SyntheticShdGenerator::SyntheticShdGenerator(const ShdSynthParams& params) : params_(params) {
  R4NCL_CHECK(params_.classes > 0 && params_.channels > 0 && params_.timesteps > 0,
              "degenerate dataset geometry");
  R4NCL_CHECK(params_.ridges_per_class > 0, "need at least one ridge per class");
  Rng proto_rng(params_.seed);
  const double T = static_cast<double>(params_.timesteps);
  const double C = static_cast<double>(params_.channels);

  // Shared channel-position pool: the same frequency bands are excited by
  // every class, so class identity must be read from ridge *timing*.
  std::vector<double> pool(static_cast<std::size_t>(std::max(1, params_.position_pool)));
  for (auto& p : pool) p = proto_rng.uniform(0.08 * C, 0.92 * C);

  prototypes_.resize(params_.classes);
  for (std::size_t k = 0; k < params_.classes; ++k) {
    Rng rng = proto_rng.fork();
    auto& ridges = prototypes_[k];
    ridges.reserve(static_cast<std::size_t>(params_.ridges_per_class));
    // Stagger ridge onsets across the sequence so each class is a temporal
    // *pattern* (an ordering of band activations), not a static set.
    for (int r = 0; r < params_.ridges_per_class; ++r) {
      Ridge ridge;
      if (rng.uniform() < params_.shared_position_fraction) {
        ridge.start_channel = pool[rng.uniform_index(pool.size())];
      } else {
        ridge.start_channel = rng.uniform(0.05 * C, 0.95 * C);
      }
      ridge.velocity = rng.uniform(-3.0, 3.0);
      // Onset inside the r-th quarter of the sequence → class-specific order.
      const double slot = T / static_cast<double>(params_.ridges_per_class);
      const double on = slot * static_cast<double>(r) + rng.uniform(0.0, 0.6 * slot);
      const double dur = rng.uniform(0.6 * slot, 1.6 * slot);
      ridge.t_on = on;
      ridge.t_off = std::min(T, on + dur);
      ridge.rate_scale = rng.uniform(0.65, 1.0);
      ridges.push_back(ridge);
    }
  }
}

const std::vector<Ridge>& SyntheticShdGenerator::class_prototype(std::int32_t class_id) const {
  R4NCL_CHECK(class_id >= 0 && static_cast<std::size_t>(class_id) < params_.classes,
              "class " << class_id << " out of range");
  return prototypes_[static_cast<std::size_t>(class_id)];
}

Sample SyntheticShdGenerator::make_sample(std::int32_t class_id, Rng& rng) const {
  const auto& ridges = class_prototype(class_id);
  Sample sample;
  sample.label = class_id;
  sample.raster = SpikeRaster(params_.timesteps, params_.channels);

  // Per-sample deformations: shared across ridges so the whole "utterance"
  // shifts coherently, as a speaker/speed change would.
  const double dt = rng.normal(0.0, params_.time_jitter);
  const double dc = rng.normal(0.0, params_.channel_jitter);
  const double rate_mult = std::max(0.2, 1.0 + rng.normal(0.0, params_.rate_jitter));

  const double inv_two_sigma2 = 1.0 / (2.0 * params_.ridge_width * params_.ridge_width);
  for (std::size_t t = 0; t < params_.timesteps; ++t) {
    const double tt = static_cast<double>(t) - dt;
    // Precompute active ridge centres at this timestep.
    for (std::size_t c = 0; c < params_.channels; ++c) {
      double rate = params_.background_rate;
      for (const Ridge& ridge : ridges) {
        if (tt < ridge.t_on || tt > ridge.t_off) continue;
        const double centre = ridge.start_channel + dc + ridge.velocity * (tt - ridge.t_on);
        const double d = static_cast<double>(c) - centre;
        // Cheap reject: beyond 4σ the contribution is negligible.
        if (std::fabs(d) > 4.0 * params_.ridge_width) continue;
        rate += rate_mult * params_.ridge_peak_rate * ridge.rate_scale *
                std::exp(-d * d * inv_two_sigma2);
      }
      if (rate > 0.0 && rng.bernoulli(rate)) {
        sample.raster.bits[t * params_.channels + c] = 1;
      }
    }
  }
  return sample;
}

Dataset SyntheticShdGenerator::make_dataset(std::size_t per_class, std::uint64_t seed) const {
  std::vector<std::int32_t> all(params_.classes);
  for (std::size_t k = 0; k < params_.classes; ++k) all[k] = static_cast<std::int32_t>(k);
  return make_dataset(all, per_class, seed);
}

Dataset SyntheticShdGenerator::make_dataset(std::span<const std::int32_t> classes,
                                            std::size_t per_class,
                                            std::uint64_t seed) const {
  Dataset out;
  out.reserve(classes.size() * per_class);
  Rng root(seed);
  for (std::int32_t k : classes) {
    // Each (class, seed) pair gets its own stream so adding classes does not
    // perturb the samples of existing ones.
    Rng class_rng(root() ^ (0x9e37u + static_cast<std::uint64_t>(k) * 0x85ebca6bULL));
    for (std::size_t i = 0; i < per_class; ++i) {
      out.push_back(make_sample(k, class_rng));
    }
  }
  return out;
}

}  // namespace r4ncl::data
