// Bit-packing at one bit per cell (the binary strategies' payload): round-trip
// fidelity, row padding and byte accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "compress/bitpack.hpp"
#include "util/rng.hpp"

namespace r4ncl::compress {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t T, std::size_t C, double p,
                                      std::uint64_t seed) {
  std::vector<std::uint8_t> bits(T * C);
  Rng rng(seed);
  for (auto& b : bits) b = rng.bernoulli(p) ? 1 : 0;
  return bits;
}

std::size_t spike_count(const std::vector<std::uint8_t>& bits) {
  return static_cast<std::size_t>(std::count(bits.begin(), bits.end(), std::uint8_t{1}));
}

TEST(Bitpack, RoundTripExact) {
  // Wide rows (50, 700 channels) beside byte-boundary ones.
  for (std::size_t C : {1u, 7u, 8u, 9u, 50u, 700u}) {
    const auto bits = random_bits(13, C, 0.3, C);
    EXPECT_EQ(unpack_elements(pack_elements(bits, 13, C, 1)), bits) << "channels=" << C;
  }
}

TEST(Bitpack, EmptyRasterRoundTrip) {
  const std::vector<std::uint8_t> silent(5 * 10, 0);
  const auto out = unpack_elements(pack_elements(silent, 5, 10, 1));
  EXPECT_EQ(out, silent);
  EXPECT_EQ(spike_count(out), 0u);
}

TEST(Bitpack, RowBytesArePadded) {
  // 50 channels → 7 bytes per row (not 6.25).
  const PackedRaster p = pack_elements(random_bits(4, 50, 0.5, 1), 4, 50, 1);
  EXPECT_EQ(p.row_bytes(), 7u);
  EXPECT_EQ(p.payload_bytes(), 4u * 7u);
}

TEST(Bitpack, ExactMultipleOfEightNoPadding) {
  EXPECT_EQ(pack_elements(random_bits(3, 16, 0.5, 2), 3, 16, 1).row_bytes(), 2u);
}

TEST(Bitpack, PayloadScalesLinearlyWithTimesteps) {
  const PackedRaster a = pack_elements(random_bits(10, 50, 0.2, 3), 10, 50, 1);
  const PackedRaster b = pack_elements(random_bits(40, 50, 0.2, 4), 40, 50, 1);
  EXPECT_EQ(b.payload_bytes(), 4u * a.payload_bytes());
}

TEST(Bitpack, StoredBytesAddsHeader) {
  const PackedRaster p = pack_elements(random_bits(4, 8, 0.5, 5), 4, 8, 1);
  EXPECT_EQ(stored_bytes(p, 16), p.payload_bytes() + 16u);
}

TEST(Bitpack, DensityPreserved) {
  const auto bits = random_bits(20, 33, 0.4, 6);
  EXPECT_EQ(spike_count(unpack_elements(pack_elements(bits, 20, 33, 1))), spike_count(bits));
}

}  // namespace
}  // namespace r4ncl::compress
