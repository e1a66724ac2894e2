// Spike raster utilities: counting, rescaling, batching, filtering.
#include <gtest/gtest.h>

#include "compress/spike_codec.hpp"
#include "core/latent_buffer.hpp"
#include "data/spike_data.hpp"

namespace r4ncl::data {
namespace {

SpikeRaster make_raster(std::size_t T, std::size_t C,
                        std::initializer_list<std::pair<std::size_t, std::size_t>> spikes) {
  SpikeRaster r(T, C);
  for (auto [t, c] : spikes) r.set(t, c, true);
  return r;
}

TEST(SpikeRaster, CountAndDensity) {
  const SpikeRaster r = make_raster(4, 5, {{0, 0}, {1, 2}, {3, 4}});
  EXPECT_EQ(r.spike_count(), 3u);
  EXPECT_DOUBLE_EQ(r.density(), 3.0 / 20.0);
}

TEST(SpikeRaster, NonzeroCellsCountOnce) {
  // Any nonzero cell is one spike, as in the codec: a cell holding 2 or 255
  // counts like a cell holding 1.
  SpikeRaster wide(4, 2);
  wide.bits = {2, 0, 0, 255, 1, 0, 0, 1};
  SpikeRaster normalized(4, 2);
  normalized.bits = {1, 0, 0, 1, 1, 0, 0, 1};
  EXPECT_EQ(wide.spike_count(), 4u);
  EXPECT_DOUBLE_EQ(wide.density(), 0.5);
  EXPECT_DOUBLE_EQ(compress::spike_retention(wide, {.ratio = 1}), 1.0);
  // The buffer's importance proxy is the raster's density at add() time.
  core::LatentReplayBuffer wide_buffer(compress::CodecConfig{.ratio = 1}, 4);
  core::LatentReplayBuffer normalized_buffer(compress::CodecConfig{.ratio = 1}, 4);
  wide_buffer.add(wide, 0);
  normalized_buffer.add(normalized, 0);
  EXPECT_EQ(wide_buffer.density_at(0), normalized_buffer.density_at(0));
  EXPECT_FLOAT_EQ(wide_buffer.density_at(0), 0.5f);
}

TEST(SpikeRaster, EmptyDensityIsZero) {
  SpikeRaster r;
  EXPECT_DOUBLE_EQ(r.density(), 0.0);
}

TEST(TimeRescale, IdentityWhenSameLength) {
  const SpikeRaster r = make_raster(6, 3, {{2, 1}});
  const SpikeRaster out = time_rescale(r, 6);
  EXPECT_EQ(out, r);
}

TEST(TimeRescale, GroupOrKeepsEverySpikeBurst) {
  // 100 → 40: group-OR must preserve any channel-timestep bin with activity.
  SpikeRaster r(100, 2);
  r.set(0, 0, true);
  r.set(99, 0, true);
  r.set(50, 1, true);
  const SpikeRaster out = time_rescale(r, 40, TimeRescaleMethod::kGroupOr);
  EXPECT_EQ(out.timesteps, 40u);
  EXPECT_GE(out.spike_count(), 3u - 1u);  // first/last/middle bins may merge
  EXPECT_EQ(out.at(0, 0), 1);
  EXPECT_EQ(out.at(39, 0), 1);
  EXPECT_EQ(out.at(20, 1), 1);
}

TEST(TimeRescale, GroupOrNeverInventsSpikes) {
  SpikeRaster r(100, 4);  // empty
  const SpikeRaster out = time_rescale(r, 40);
  EXPECT_EQ(out.spike_count(), 0u);
}

TEST(TimeRescale, SubsampleTakesBinStart) {
  // 10 → 5 with ratio 2: target step t reads source step 2t.
  SpikeRaster r(10, 1);
  r.set(0, 0, true);
  r.set(3, 0, true);  // odd step → dropped by subsampling
  r.set(4, 0, true);
  const SpikeRaster out = time_rescale(r, 5, TimeRescaleMethod::kSubsample);
  EXPECT_EQ(out.at(0, 0), 1);
  EXPECT_EQ(out.at(1, 0), 0);
  EXPECT_EQ(out.at(2, 0), 1);
}

TEST(TimeRescale, SpikeCountNonIncreasing) {
  // Re-binning can merge spikes but must never create them (group-OR).
  Rng rng(3);
  SpikeRaster r(100, 10);
  for (auto& b : r.bits) b = rng.bernoulli(0.2) ? 1 : 0;
  for (std::size_t target : {60u, 40u, 20u, 10u}) {
    const SpikeRaster out = time_rescale(r, target);
    EXPECT_LE(out.spike_count(), r.spike_count()) << "target " << target;
    EXPECT_GT(out.spike_count(), 0u);
  }
}

TEST(TimeRescale, DatasetVariantRescalesAll) {
  Dataset ds;
  ds.push_back({make_raster(10, 2, {{0, 0}}), 1});
  ds.push_back({make_raster(10, 2, {{9, 1}}), 2});
  const Dataset out = time_rescale(ds, 5);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].raster.timesteps, 5u);
  EXPECT_EQ(out[0].label, 1);
  EXPECT_EQ(out[1].label, 2);
}

TEST(Batching, RoundTripThroughTensor) {
  Dataset ds;
  ds.push_back({make_raster(4, 3, {{0, 0}, {2, 1}}), 0});
  ds.push_back({make_raster(4, 3, {{1, 2}, {3, 0}}), 1});
  const std::size_t idx_arr[] = {0, 1};
  const Tensor batch = make_batch(ds, idx_arr);
  EXPECT_EQ(batch.dim(0), 4u);
  EXPECT_EQ(batch.dim(1), 2u);
  EXPECT_EQ(batch.dim(2), 3u);
  EXPECT_EQ(batch_to_raster(batch, 0), ds[0].raster);
  EXPECT_EQ(batch_to_raster(batch, 1), ds[1].raster);
}

TEST(Batching, RasterToBatchSingle) {
  const SpikeRaster r = make_raster(3, 2, {{1, 1}});
  const Tensor batch = raster_to_batch(r);
  EXPECT_EQ(batch.dim(1), 1u);
  EXPECT_EQ(batch(1, 0, 1), 1.0f);
  EXPECT_EQ(batch(0, 0, 0), 0.0f);
}

TEST(Batching, MixedShapesRejected) {
  Dataset ds;
  ds.push_back({SpikeRaster(4, 3), 0});
  ds.push_back({SpikeRaster(5, 3), 1});
  const std::size_t idx_arr[] = {0, 1};
  EXPECT_THROW((void)make_batch(ds, idx_arr), Error);
}

TEST(Filtering, TakePerClassCaps) {
  Dataset ds;
  for (int i = 0; i < 6; ++i) ds.push_back({SpikeRaster(2, 2), i % 2});
  const std::int32_t keep[] = {0, 1};
  const Dataset out = take_per_class(ds, keep, 2);
  EXPECT_EQ(out.size(), 4u);
}

TEST(Filtering, ClassesOfSortedUnique) {
  Dataset ds;
  ds.push_back({SpikeRaster(1, 1), 4});
  ds.push_back({SpikeRaster(1, 1), 1});
  ds.push_back({SpikeRaster(1, 1), 4});
  EXPECT_EQ(classes_of(ds), (std::vector<std::int32_t>{1, 4}));
}

}  // namespace
}  // namespace r4ncl::data
