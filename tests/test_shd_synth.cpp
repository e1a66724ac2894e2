// Synthetic SHD generator: determinism, geometry, class structure.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "data/shd_synth.hpp"

namespace r4ncl::data {
namespace {

ShdSynthParams small_params() {
  ShdSynthParams p;
  p.channels = 64;
  p.classes = 4;
  p.timesteps = 50;
  p.seed = 11;
  return p;
}

TEST(ShdSynth, SampleGeometry) {
  const SyntheticShdGenerator gen(small_params());
  Rng rng(1);
  const Sample s = gen.make_sample(2, rng);
  EXPECT_EQ(s.label, 2);
  EXPECT_EQ(s.raster.timesteps, 50u);
  EXPECT_EQ(s.raster.channels, 64u);
}

TEST(ShdSynth, DeterministicPrototypes) {
  const SyntheticShdGenerator a(small_params()), b(small_params());
  for (std::int32_t k = 0; k < 4; ++k) {
    const auto& ra = a.class_prototype(k);
    const auto& rb = b.class_prototype(k);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_DOUBLE_EQ(ra[i].start_channel, rb[i].start_channel);
      EXPECT_DOUBLE_EQ(ra[i].velocity, rb[i].velocity);
    }
  }
}

TEST(ShdSynth, SeedChangesPrototypes) {
  ShdSynthParams p2 = small_params();
  p2.seed = 999;
  const SyntheticShdGenerator a(small_params()), b(p2);
  bool any_diff = false;
  for (std::int32_t k = 0; k < 4 && !any_diff; ++k) {
    any_diff = a.class_prototype(k)[0].start_channel != b.class_prototype(k)[0].start_channel;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ShdSynth, DatasetDeterministicGivenSeed) {
  const SyntheticShdGenerator gen(small_params());
  const Dataset a = gen.make_dataset(3, 42);
  const Dataset b = gen.make_dataset(3, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_TRUE(a[i].raster == b[i].raster) << "sample " << i;
  }
}

TEST(ShdSynth, DifferentDrawSeedsDiffer) {
  const SyntheticShdGenerator gen(small_params());
  const Dataset a = gen.make_dataset(2, 1);
  const Dataset b = gen.make_dataset(2, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = !(a[i].raster == b[i].raster);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ShdSynth, DatasetIsClassMajorAndComplete) {
  const SyntheticShdGenerator gen(small_params());
  const Dataset ds = gen.make_dataset(3, 5);
  ASSERT_EQ(ds.size(), 12u);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds[i].label, static_cast<std::int32_t>(i / 3));
  }
}

TEST(ShdSynth, SubsetDatasetOnlyHasRequestedClasses) {
  const SyntheticShdGenerator gen(small_params());
  const std::int32_t classes[] = {1, 3};
  const Dataset ds = gen.make_dataset(classes, 2, 7);
  ASSERT_EQ(ds.size(), 4u);
  EXPECT_EQ(ds[0].label, 1);
  EXPECT_EQ(ds[2].label, 3);
}

TEST(ShdSynth, RidgeActivityAboveBackground) {
  // Generated class-0 samples must spike near the centre of a class-0 ridge
  // far more often than the background rate: a window of ±1 timestep and
  // ±2 channels around the ridge's mid-window centre, over 40 samples.
  const ShdSynthParams params = small_params();
  const SyntheticShdGenerator gen(params);
  const Ridge& ridge = gen.class_prototype(0)[0];
  const double t_mid = 0.5 * (ridge.t_on + ridge.t_off);
  const double centre = ridge.start_channel + ridge.velocity * (t_mid - ridge.t_on);
  const auto t0 = static_cast<std::ptrdiff_t>(std::lround(t_mid));
  const auto c0 = static_cast<std::ptrdiff_t>(std::lround(centre));
  const auto T = static_cast<std::ptrdiff_t>(params.timesteps);
  const auto C = static_cast<std::ptrdiff_t>(params.channels);
  std::size_t spikes = 0, cells = 0;
  for (const Sample& s : gen.make_dataset(std::vector<std::int32_t>{0}, 40, 5)) {
    for (std::ptrdiff_t t = std::max<std::ptrdiff_t>(0, t0 - 1);
         t <= std::min<std::ptrdiff_t>(T - 1, t0 + 1); ++t) {
      for (std::ptrdiff_t c = std::max<std::ptrdiff_t>(0, c0 - 2);
           c <= std::min<std::ptrdiff_t>(C - 1, c0 + 2); ++c) {
        spikes += s.raster.bits[static_cast<std::size_t>(t * C + c)] != 0 ? 1 : 0;
        ++cells;
      }
    }
  }
  ASSERT_GT(cells, 0u);
  const double rate = static_cast<double>(spikes) / static_cast<double>(cells);
  EXPECT_GT(rate, 10.0 * params.background_rate) << spikes << " spikes in " << cells << " cells";
}

TEST(ShdSynth, SamplesCarryClassSignal) {
  // Average rasters per class and check that a class's own mean raster is a
  // better match (higher correlation) than another class's — the dataset
  // must be statistically separable for the CL experiments to be meaningful.
  const SyntheticShdGenerator gen(small_params());
  const std::size_t per_class = 12;
  const Dataset ds = gen.make_dataset(per_class, 3);
  const std::size_t cells = 50 * 64;
  std::vector<std::vector<double>> mean(4, std::vector<double>(cells, 0.0));
  for (const auto& s : ds) {
    for (std::size_t i = 0; i < cells; ++i) {
      mean[static_cast<std::size_t>(s.label)][i] += s.raster.bits[i];
    }
  }
  for (auto& m : mean) {
    for (auto& v : m) v /= per_class;
  }
  auto dot = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < cells; ++i) acc += a[i] * b[i];
    return acc;
  };
  for (std::size_t k = 0; k < 4; ++k) {
    const double self = dot(mean[k], mean[k]);
    for (std::size_t j = 0; j < 4; ++j) {
      if (j == k) continue;
      EXPECT_GT(self, dot(mean[k], mean[j])) << "classes " << k << " vs " << j;
    }
  }
}

TEST(ShdSynth, DensityInEventDataRange) {
  const SyntheticShdGenerator gen(small_params());
  const Dataset ds = gen.make_dataset(4, 5);
  double density = 0.0;
  for (const auto& s : ds) density += s.raster.density();
  density /= static_cast<double>(ds.size());
  // Event data is sparse but not empty: between 0.5% and 30% of cells.
  EXPECT_GT(density, 0.005);
  EXPECT_LT(density, 0.30);
}

TEST(ShdSynth, RejectsBadClassId) {
  const SyntheticShdGenerator gen(small_params());
  Rng rng(1);
  EXPECT_THROW((void)gen.make_sample(99, rng), Error);
  EXPECT_THROW((void)gen.class_prototype(-1), Error);
}

TEST(ShdSynth, PaperDefaultGeometry) {
  const ShdSynthParams defaults;
  EXPECT_EQ(defaults.channels, 700u);
  EXPECT_EQ(defaults.classes, 20u);
  EXPECT_EQ(defaults.timesteps, 100u);
}

}  // namespace
}  // namespace r4ncl::data
