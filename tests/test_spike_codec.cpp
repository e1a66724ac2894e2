// Spike codec: bit-exact reproduction of the paper's Fig. 7 example,
// parameterised properties over ratios and strategies, and the identity of
// the stored codec (compress_packed/decompress_packed_into) with the
// raster-level reference (compress/decompress).
#include <gtest/gtest.h>

#include "compress/spike_codec.hpp"
#include "util/rng.hpp"

namespace r4ncl::compress {
namespace {

data::SpikeRaster from_bits(std::initializer_list<int> bits) {
  data::SpikeRaster r(bits.size(), 1);
  std::size_t t = 0;
  for (int b : bits) r.set(t++, 0, b != 0);
  return r;
}

std::vector<int> to_bits(const data::SpikeRaster& r) {
  std::vector<int> out;
  out.reserve(r.timesteps);
  for (std::size_t t = 0; t < r.timesteps; ++t) out.push_back(r.at(t, 0));
  return out;
}

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double p, std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(p) ? 1 : 0;
  return r;
}

TEST(SpikeCodec, PaperFig7CompressExample) {
  // Original: 1 1 0 1 0 1 0 0 1 0 1 1 1 0  →  Compressed: 1 0 0 0 1 1 1
  const auto original = from_bits({1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0});
  const CodecConfig cfg{.ratio = 2, .strategy = CodecStrategy::kSubsample};
  EXPECT_EQ(to_bits(compress(original, cfg)), (std::vector<int>{1, 0, 0, 0, 1, 1, 1}));
}

TEST(SpikeCodec, PaperFig7DecompressExample) {
  // Compressed: 1 0 0 0 1 1 1  →  Decompressed: 1 0 0 0 0 0 0 0 1 0 1 0 1 0
  const auto compressed = from_bits({1, 0, 0, 0, 1, 1, 1});
  const CodecConfig cfg{.ratio = 2, .strategy = CodecStrategy::kSubsample};
  EXPECT_EQ(to_bits(decompress(compressed, 14, cfg)),
            (std::vector<int>{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0}));
}

TEST(SpikeCodec, RatioOneIsIdentity) {
  Rng rng(1);
  data::SpikeRaster r(10, 4);
  for (auto& b : r.bits) b = rng.bernoulli(0.4) ? 1 : 0;
  const CodecConfig cfg{.ratio = 1};
  EXPECT_EQ(compress(r, cfg), r);
  EXPECT_EQ(decompress(r, 10, cfg), r);
}

/// Properties that must hold for every (ratio, strategy) combination.
class CodecSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, CodecStrategy>> {};

TEST_P(CodecSweep, CompressedLengthIsCeilTOverRatio) {
  const auto [ratio, strategy] = GetParam();
  const CodecConfig cfg{.ratio = ratio, .strategy = strategy};
  for (std::size_t T : {1u, 7u, 40u, 100u, 101u}) {
    data::SpikeRaster r(T, 3);
    const auto c = compress(r, cfg);
    EXPECT_EQ(c.timesteps, (T + ratio - 1) / ratio) << "T=" << T;
    EXPECT_EQ(c.channels, 3u);
  }
}

TEST_P(CodecSweep, RoundTripNeverGainsSpikes) {
  const auto [ratio, strategy] = GetParam();
  const CodecConfig cfg{.ratio = ratio, .strategy = strategy};
  Rng rng(ratio * 10 + static_cast<int>(strategy));
  data::SpikeRaster r(100, 8);
  for (auto& b : r.bits) b = rng.bernoulli(0.25) ? 1 : 0;
  const auto round = decompress(compress(r, cfg), 100, cfg);
  if (strategy == CodecStrategy::kGroupOr) {
    // OR keeps one representative per active group: count can only shrink.
    EXPECT_LE(round.spike_count(), r.spike_count());
    EXPECT_GT(round.spike_count(), 0u);
  } else {
    EXPECT_LE(round.spike_count(), r.spike_count());
  }
}

TEST_P(CodecSweep, DecompressedSpikesSitAtGroupStarts) {
  const auto [ratio, strategy] = GetParam();
  if (ratio == 1) GTEST_SKIP() << "identity codec has no group structure";
  const CodecConfig cfg{.ratio = ratio, .strategy = strategy};
  Rng rng(77);
  data::SpikeRaster r(60, 4);
  for (auto& b : r.bits) b = rng.bernoulli(0.5) ? 1 : 0;
  const auto round = decompress(compress(r, cfg), 60, cfg);
  for (std::size_t t = 0; t < round.timesteps; ++t) {
    if (t % ratio == 0) continue;
    for (std::size_t c = 0; c < round.channels; ++c) {
      EXPECT_EQ(round.at(t, c), 0) << "non-group-start slot must be zero, t=" << t;
    }
  }
}

TEST_P(CodecSweep, PackedPathMatchesUnpackedPath) {
  // The stored payload is compress()'s grid at one bit per cell, and it
  // decodes to decompress()'s raster.  T = 47 leaves a partial last group at
  // ratios 2, 3, 4 and 7; one and ten channels pad each payload row.
  const auto [ratio, strategy] = GetParam();
  const CodecConfig cfg{.ratio = ratio, .strategy = strategy};
  for (const std::size_t T : {47u, 48u}) {
    for (const std::size_t C : {1u, 10u}) {
      const data::SpikeRaster r = random_raster(T, C, 0.3, 5 + T + C);
      const data::SpikeRaster grid = compress(r, cfg);
      const PackedRaster stored = compress_packed(r, cfg);
      EXPECT_EQ(stored.bits_per_element, 1) << "T=" << T << " C=" << C;
      EXPECT_EQ(stored.payload, pack_elements(grid.bits, grid.timesteps, C, 1).payload)
          << "T=" << T << " C=" << C;
      EXPECT_EQ(decompress_packed(stored, T, cfg), decompress(grid, T, cfg))
          << "T=" << T << " C=" << C;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatiosAndStrategies, CodecSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 7u),
                       ::testing::Values(CodecStrategy::kSubsample, CodecStrategy::kGroupOr,
                                         CodecStrategy::kGroupMajority)));

TEST(SpikeCodec, GroupOrRetainsMoreThanSubsample) {
  Rng rng(9);
  data::SpikeRaster r(100, 16);
  for (auto& b : r.bits) b = rng.bernoulli(0.15) ? 1 : 0;
  const double ret_or =
      spike_retention(r, {.ratio = 2, .strategy = CodecStrategy::kGroupOr});
  const double ret_sub =
      spike_retention(r, {.ratio = 2, .strategy = CodecStrategy::kSubsample});
  EXPECT_GE(ret_or, ret_sub);
}

TEST(SpikeCodec, RetentionDecreasesWithRatio) {
  Rng rng(10);
  data::SpikeRaster r(96, 16);
  for (auto& b : r.bits) b = rng.bernoulli(0.2) ? 1 : 0;
  double prev = 1.1;
  for (std::uint32_t ratio : {1u, 2u, 4u}) {
    const double ret = spike_retention(r, {.ratio = ratio, .strategy = CodecStrategy::kSubsample});
    EXPECT_LE(ret, prev) << "ratio " << ratio;
    prev = ret;
  }
}

TEST(SpikeCodec, RetentionOfEmptyIsOne) {
  const data::SpikeRaster r(10, 3);
  EXPECT_DOUBLE_EQ(spike_retention(r, {.ratio = 4}), 1.0);
}

TEST(SpikeCodec, DecompressRejectsWrongLength) {
  const data::SpikeRaster r(5, 2);
  EXPECT_THROW((void)decompress(r, 14, {.ratio = 2}), Error);
}

TEST(SpikeCodec, NonzeroCellsCountAsOneSpike) {
  // Any nonzero raster cell is one spike: a raster of 0/2/255 cells stores
  // the payload of its 0/1 normalization at every codec.  Summing raw cell
  // values would index past the quantizer's count table and tip majority
  // votes.
  Rng rng(31);
  data::SpikeRaster wide(24, 11);
  data::SpikeRaster normalized(24, 11);
  for (std::size_t i = 0; i < wide.bits.size(); ++i) {
    const std::size_t pick = rng.uniform_index(3);
    wide.bits[i] = pick == 0 ? 0 : (pick == 1 ? 2 : 255);
    normalized.bits[i] = pick == 0 ? 0 : 1;
  }
  for (const std::uint8_t bits : {0, 1, 2, 4, 8}) {
    for (const std::uint32_t ratio : {1u, 2u, 4u}) {
      for (const CodecStrategy strategy : {CodecStrategy::kSubsample, CodecStrategy::kGroupOr,
                                           CodecStrategy::kGroupMajority}) {
        const CodecConfig cfg{.ratio = ratio, .strategy = strategy, .latent_bits = bits};
        EXPECT_EQ(compress_packed(wide, cfg).payload, compress_packed(normalized, cfg).payload)
            << "latent_bits=" << int(bits) << " ratio=" << ratio
            << " strategy=" << int(strategy);
        if (!cfg.quantized()) {
          EXPECT_EQ(compress(wide, cfg), compress(normalized, cfg))
              << "ratio=" << ratio << " strategy=" << int(strategy);
        }
      }
    }
  }
}

TEST(SpikeCodec, DecompressPackedIntoReusesScratch) {
  // A second decode into the same raster and level scratch reuses both
  // allocations and yields the same raster, for the raw, ratio-2 binary and
  // 2-bit codecs.
  const data::SpikeRaster r = random_raster(13, 77, 0.3, 6);
  const CodecConfig codecs[] = {{.ratio = 1}, {.ratio = 2}, {.ratio = 1, .latent_bits = 2}};
  for (const CodecConfig& cfg : codecs) {
    const PackedRaster packed = compress_packed(r, cfg);
    data::SpikeRaster out;
    std::vector<std::uint8_t> levels;
    decompress_packed_into(packed, 13, cfg, out, &levels);
    const data::SpikeRaster first = out;
    const std::uint8_t* out_before = out.bits.data();
    const std::uint8_t* levels_before = levels.data();
    decompress_packed_into(packed, 13, cfg, out, &levels);
    EXPECT_EQ(out, first) << "ratio=" << cfg.ratio << " bits=" << int(cfg.latent_bits);
    EXPECT_EQ(out.bits.data(), out_before) << "raster reallocated on matched geometry";
    EXPECT_EQ(levels.data(), levels_before) << "level scratch reallocated";
    if (cfg.ratio == 1) EXPECT_EQ(out, r) << "ratio-1 codecs store the raster exactly";
  }
}

TEST(SpikeCodec, BinaryRatiosPast255DecodeLikeTheReference) {
  // Binary codecs take any ratio: at 300 the groups are 300, 300 and 100
  // steps long, so group slots past 255 must stay silent.
  const data::SpikeRaster r = random_raster(700, 3, 0.4, 12);
  for (const CodecStrategy strategy : {CodecStrategy::kSubsample, CodecStrategy::kGroupOr,
                                       CodecStrategy::kGroupMajority}) {
    const CodecConfig cfg{.ratio = 300, .strategy = strategy};
    const data::SpikeRaster grid = compress(r, cfg);
    const PackedRaster stored = compress_packed(r, cfg);
    EXPECT_EQ(stored.payload, pack_elements(grid.bits, 3, 3, 1).payload)
        << "strategy=" << int(strategy);
    EXPECT_EQ(decompress_packed(stored, 700, cfg), decompress(grid, 700, cfg))
        << "strategy=" << int(strategy);
  }
}

TEST(SpikeCodec, MajorityVotesCorrectly) {
  // Group of 3: two spikes → majority 1; one spike → 0.
  const auto original = from_bits({1, 1, 0, 1, 0, 0});
  const CodecConfig cfg{.ratio = 3, .strategy = CodecStrategy::kGroupMajority};
  EXPECT_EQ(to_bits(compress(original, cfg)), (std::vector<int>{1, 0}));
}

}  // namespace
}  // namespace r4ncl::compress
