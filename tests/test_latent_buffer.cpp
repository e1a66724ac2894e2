// Latent replay buffer: storage, memory accounting, materialisation.
#include <gtest/gtest.h>

#include "core/latent_buffer.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {
namespace {

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double p, std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(p) ? 1 : 0;
  return r;
}

TEST(LatentBuffer, RawStorageRoundTripsExactly) {
  LatentReplayBuffer buf({.ratio = 1}, 40);
  const auto r = random_raster(40, 50, 0.2, 1);
  buf.add(r, 7);
  const auto ds = buf.materialize();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].raster, r);
  EXPECT_EQ(ds[0].label, 7);
}

TEST(LatentBuffer, CompressedStorageIsLossyButAligned) {
  LatentReplayBuffer buf({.ratio = 2}, 100);
  const auto r = random_raster(100, 50, 0.2, 2);
  buf.add(r, 3);
  const auto ds = buf.materialize();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].raster.timesteps, 100u);
  EXPECT_LE(ds[0].raster.spike_count(), r.spike_count());
}

TEST(LatentBuffer, RejectsWrongTimesteps) {
  LatentReplayBuffer buf({.ratio = 1}, 40);
  EXPECT_THROW(buf.add(random_raster(100, 10, 0.1, 3), 0), Error);
}

TEST(LatentBuffer, ConstructorRejectsCodecsNoPayloadCanStore) {
  // compress::check_codec: a quantized ratio past 255 used to construct and
  // fail only at the first add(); binary codecs take any ratio.
  EXPECT_THROW(LatentReplayBuffer({.ratio = 0}, 40), Error);
  EXPECT_THROW(LatentReplayBuffer({.ratio = 2, .latent_bits = 3}, 40), Error);
  EXPECT_THROW(LatentReplayBuffer({.ratio = 256, .latent_bits = 8}, 40), Error);
  EXPECT_NO_THROW(LatentReplayBuffer({.ratio = 255, .latent_bits = 8}, 40));
  EXPECT_NO_THROW(LatentReplayBuffer({.ratio = 256}, 40));
}

TEST(LatentBuffer, MemoryAccountingRawVsCompressed) {
  // The paper's Fig. 12 comparison: SpikingLR stores codec(r=2) @ T=100
  // (50 packed rows), Replay4NCL stores raw @ T*=40 (40 packed rows) →
  // ≈20% latent-memory saving at every layer width.
  for (std::size_t width : {200u, 100u, 50u}) {
    LatentReplayBuffer sota({.ratio = 2}, 100);
    LatentReplayBuffer r4ncl({.ratio = 1}, 40);
    for (int i = 0; i < 5; ++i) {
      sota.add(random_raster(100, width, 0.2, 10 + i), i);
      r4ncl.add(random_raster(40, width, 0.2, 20 + i), i);
    }
    const double saving = 1.0 - static_cast<double>(r4ncl.memory_bytes()) /
                                    static_cast<double>(sota.memory_bytes());
    EXPECT_GT(saving, 0.18) << "width " << width;
    EXPECT_LT(saving, 0.25) << "width " << width;
  }
}

TEST(LatentBuffer, MemoryGrowsLinearly) {
  LatentReplayBuffer buf({.ratio = 1}, 10);
  buf.add(random_raster(10, 16, 0.5, 1), 0);
  const std::size_t one = buf.memory_bytes();
  buf.add(random_raster(10, 16, 0.5, 2), 1);
  EXPECT_EQ(buf.memory_bytes(), 2 * one);
}

TEST(LatentBuffer, DecompressBitsChargedOnlyWhenCompressed) {
  LatentReplayBuffer raw({.ratio = 1}, 20);
  LatentReplayBuffer packed({.ratio = 2}, 20);
  raw.add(random_raster(20, 8, 0.4, 4), 0);
  packed.add(random_raster(20, 8, 0.4, 4), 0);
  snn::SpikeOpStats raw_stats, packed_stats;
  (void)raw.materialize(&raw_stats);
  (void)packed.materialize(&packed_stats);
  EXPECT_EQ(raw_stats.decompress_bits, 0u);
  EXPECT_GT(packed_stats.decompress_bits, 0u);
}

TEST(LatentBuffer, MaterializePreservesOrderAndLabels) {
  LatentReplayBuffer buf({.ratio = 1}, 5);
  for (int i = 0; i < 4; ++i) buf.add(random_raster(5, 4, 0.3, 100 + i), i * 2);
  const auto ds = buf.materialize();
  ASSERT_EQ(ds.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ds[static_cast<std::size_t>(i)].label, i * 2);
}

TEST(LatentBuffer, HeaderBytesDependOnCodec) {
  LatentReplayBuffer raw({.ratio = 1}, 10);
  LatentReplayBuffer packed({.ratio = 2}, 10);
  EXPECT_LT(raw.header_bytes(), packed.header_bytes());
}

TEST(LatentBuffer, EmptyBufferBehaviour) {
  LatentReplayBuffer buf({.ratio = 2}, 10);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.memory_bytes(), 0u);
  EXPECT_TRUE(buf.materialize().empty());
}

}  // namespace
}  // namespace r4ncl::core
