// Byte-parallel pack/unpack kernels vs scalar references: exhaustive over
// all 256 payload byte values at every depth, round trips at odd channel
// counts (partial tail bytes), scratch reuse, the range check, and
// serial-vs-parallel decode equality.
//
// The scalar references below are the pre-kernel implementations (one
// shift/mask per element) — the byte-parallel LUT/SWAR kernels must agree
// with them bit for bit on every input.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "compress/bitpack.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl::compress {
namespace {

constexpr unsigned kDepths[] = {1, 2, 4, 8};

/// Scalar reference decode: one shift/mask per element (the historical
/// unpack_elements inner loop).
std::vector<std::uint8_t> scalar_unpack_elements(const PackedRaster& packed) {
  const std::size_t row_bytes = packed.row_bytes();
  const unsigned bits = packed.bits_per_element;
  const unsigned mask = (1u << bits) - 1u;
  std::vector<std::uint8_t> out(static_cast<std::size_t>(packed.timesteps) *
                                packed.channels);
  for (std::size_t t = 0; t < packed.timesteps; ++t) {
    const std::uint8_t* row = packed.payload.data() + t * row_bytes;
    std::uint8_t* dst = out.data() + t * packed.channels;
    for (std::size_t c = 0; c < packed.channels; ++c) {
      const std::size_t bit_pos = c * bits;
      dst[c] = static_cast<std::uint8_t>((row[bit_pos >> 3] >> (bit_pos & 7u)) & mask);
    }
  }
  return out;
}

/// Scalar reference encode (the historical pack_elements inner loop).
PackedRaster scalar_pack_elements(const std::vector<std::uint8_t>& values,
                                  std::size_t timesteps, std::size_t channels,
                                  unsigned bits) {
  PackedRaster out;
  out.timesteps = static_cast<std::uint32_t>(timesteps);
  out.channels = static_cast<std::uint32_t>(channels);
  out.bits_per_element = static_cast<std::uint8_t>(bits);
  const std::size_t row_bytes = out.row_bytes();
  out.payload.assign(timesteps * row_bytes, 0);
  for (std::size_t t = 0; t < timesteps; ++t) {
    std::uint8_t* row = out.payload.data() + t * row_bytes;
    const std::uint8_t* src = values.data() + t * channels;
    for (std::size_t c = 0; c < channels; ++c) {
      const std::size_t bit_pos = c * bits;
      row[bit_pos >> 3] |=
          static_cast<std::uint8_t>(static_cast<unsigned>(src[c]) << (bit_pos & 7u));
    }
  }
  return out;
}

std::vector<std::uint8_t> random_values(std::size_t n, unsigned bits, std::uint64_t seed) {
  std::vector<std::uint8_t> values(n);
  Rng rng(seed);
  for (auto& v : values) {
    v = static_cast<std::uint8_t>(rng.uniform_index(1u << bits));
  }
  return values;
}

// ---------------------------------------------------------------------------
// Exhaustive byte-level equivalence
// ---------------------------------------------------------------------------

TEST(BitpackKernels, DecodeMatchesScalarExhaustivelyOverAllByteValues) {
  // One row of 256 payload bytes per depth: every possible byte value
  // decodes through the LUT; the scalar reference is the ground truth.
  for (const unsigned bits : kDepths) {
    const std::size_t per_byte = 8 / bits;
    PackedRaster packed;
    packed.timesteps = 256;
    packed.channels = static_cast<std::uint32_t>(per_byte);
    packed.bits_per_element = static_cast<std::uint8_t>(bits);
    packed.payload.resize(256);
    for (unsigned byte = 0; byte < 256; ++byte) {
      packed.payload[byte] = static_cast<std::uint8_t>(byte);
    }
    EXPECT_EQ(unpack_elements(packed), scalar_unpack_elements(packed))
        << "depth " << bits;
  }
}

TEST(BitpackKernels, EncodeMatchesScalarOnRandomPayloads) {
  for (const unsigned bits : kDepths) {
    for (const std::size_t channels : {1u, 3u, 7u, 8u, 13u, 64u, 701u}) {
      const std::size_t timesteps = 9;
      const auto values = random_values(timesteps * channels, bits, 77 * bits + channels);
      const PackedRaster fast = pack_elements(values, timesteps, channels, bits);
      const PackedRaster reference = scalar_pack_elements(values, timesteps, channels, bits);
      EXPECT_EQ(fast.payload, reference.payload)
          << "depth " << bits << ", channels " << channels;
      EXPECT_EQ(fast.row_bytes(), reference.row_bytes());
    }
  }
}

TEST(BitpackKernels, RoundTripExactAtOddChannelCounts) {
  // Partial tail bytes: every channel count mod per-byte residue.
  for (const unsigned bits : kDepths) {
    for (std::size_t channels = 1; channels <= 17; ++channels) {
      const std::size_t timesteps = 5;
      const auto values = random_values(timesteps * channels, bits, channels * 31 + bits);
      const PackedRaster packed = pack_elements(values, timesteps, channels, bits);
      EXPECT_EQ(unpack_elements(packed), values)
          << "depth " << bits << ", channels " << channels;
    }
  }
}

TEST(BitpackKernels, TailBytePaddingBitsStayZero) {
  // 5 channels at 2 bits = 10 bits = 2 bytes/row; the upper 6 bits of the
  // second byte are padding and must encode as zero (storage accounting and
  // the pinned PR 3 layouts depend on deterministic padding).
  const std::vector<std::uint8_t> values = {3, 2, 1, 0, 3};
  const PackedRaster packed = pack_elements(values, 1, 5, 2);
  ASSERT_EQ(packed.payload.size(), 2u);
  EXPECT_EQ(packed.payload[1] & 0xFCu, 0u);
}

TEST(BitpackKernels, UnpackElementsIntoMatchesAndReusesScratch) {
  const auto values = random_values(64 * 31, 4, 123);
  const PackedRaster packed = pack_elements(values, 64, 31, 4);
  std::vector<std::uint8_t> out;
  unpack_elements_into(packed, out);
  EXPECT_EQ(out, values);
  const std::uint8_t* data_before = out.data();
  unpack_elements_into(packed, out);
  EXPECT_EQ(out, values);
  EXPECT_EQ(out.data(), data_before);
}

// ---------------------------------------------------------------------------
// Range checking survives the SWAR rewrite
// ---------------------------------------------------------------------------

TEST(BitpackKernels, OutOfRangeValueStillNamesTheElement) {
  std::vector<std::uint8_t> values(24, 1);
  values[13] = 9;  // needs 4 bits
  try {
    (void)pack_elements(values, 3, 8, 2);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("element value 9 exceeds 2-bit range"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Parallel split determinism
// ---------------------------------------------------------------------------

TEST(BitpackKernels, ParallelDecodeMatchesSerial) {
  // Big enough that parallel_for engages its workers (when OpenMP is in);
  // the result must be identical to a single-threaded decode either way.
  const std::size_t timesteps = 128;
  const std::size_t channels = 512;
  for (const unsigned bits : kDepths) {
    const auto values = random_values(timesteps * channels, bits, 999 + bits);
    const PackedRaster packed = pack_elements(values, timesteps, channels, bits);
    const int threads_before = num_threads();
    set_num_threads(1);
    const auto serial = unpack_elements(packed);
    set_num_threads(4);
    const auto parallel = unpack_elements(packed);
    set_num_threads(threads_before);
    EXPECT_EQ(serial, parallel) << "depth " << bits;
    EXPECT_EQ(serial, values);
  }
}

}  // namespace
}  // namespace r4ncl::compress
