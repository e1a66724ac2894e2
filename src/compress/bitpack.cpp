#include "compress/bitpack.hpp"

#include <array>
#include <cstring>
#include <type_traits>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace r4ncl::compress {

namespace {

// Byte-parallel decode: at depth b a payload byte holds 8/b elements, so a
// 256-row lookup table turns the scalar shift/mask inner loop into one small
// fixed-size copy per payload byte (the compiler lowers the 8/4/2-byte memcpy
// to a single load/store pair).  Tables are built at compile time; all three
// together cost 3.5 KiB of read-only data.
template <unsigned kBits>
struct DecodeTable {
  static constexpr std::size_t kPerByte = 8 / kBits;
  std::array<std::array<std::uint8_t, kPerByte>, 256> row{};

  constexpr DecodeTable() {
    constexpr unsigned mask = (1u << kBits) - 1u;
    for (unsigned byte = 0; byte < 256; ++byte) {
      for (unsigned e = 0; e < kPerByte; ++e) {
        row[byte][e] = static_cast<std::uint8_t>((byte >> (e * kBits)) & mask);
      }
    }
  }
};

template <unsigned kBits>
constexpr DecodeTable<kBits> kDecode{};

/// Decodes one packed row of `channels` elements, whole payload bytes at a
/// time.  The last byte of a row may be partial (row padding).
template <unsigned kBits>
void decode_row(const std::uint8_t* row, std::uint8_t* dst, std::size_t channels) {
  if constexpr (kBits == 8) {
    std::memcpy(dst, row, channels);
  } else {
    constexpr std::size_t per_byte = DecodeTable<kBits>::kPerByte;
    const std::size_t full = channels / per_byte;
    for (std::size_t b = 0; b < full; ++b) {
      std::memcpy(dst + b * per_byte, kDecode<kBits>.row[row[b]].data(), per_byte);
    }
    const std::size_t done = full * per_byte;
    if (done < channels) {
      const auto& tail = kDecode<kBits>.row[row[full]];
      for (std::size_t e = 0; done + e < channels; ++e) dst[done + e] = tail[e];
    }
  }
}

/// Encodes one row, folding 8/kBits elements into each payload byte
/// (SWAR-style shift/OR over whole bytes).  Returns the OR of every source
/// value so the caller can range-check once per row instead of per element.
template <unsigned kBits>
std::uint8_t encode_row(const std::uint8_t* src, std::uint8_t* row, std::size_t channels) {
  if constexpr (kBits == 8) {
    std::memcpy(row, src, channels);
    return 0;  // every uint8 value fits an 8-bit element
  } else {
    constexpr std::size_t per_byte = 8 / kBits;
    const std::size_t full = channels / per_byte;
    std::uint8_t seen = 0;
    for (std::size_t b = 0; b < full; ++b) {
      unsigned acc = 0;
      for (std::size_t e = 0; e < per_byte; ++e) {
        const std::uint8_t v = src[b * per_byte + e];
        seen = static_cast<std::uint8_t>(seen | v);
        acc |= static_cast<unsigned>(v) << (e * kBits);
      }
      row[b] = static_cast<std::uint8_t>(acc);
    }
    const std::size_t done = full * per_byte;
    if (done < channels) {
      unsigned acc = 0;
      for (std::size_t e = 0; done + e < channels; ++e) {
        const std::uint8_t v = src[done + e];
        seen = static_cast<std::uint8_t>(seen | v);
        acc |= static_cast<unsigned>(v) << (e * kBits);
      }
      row[full] = static_cast<std::uint8_t>(acc);
    }
    return seen;
  }
}

/// Runs `row_fn(t)` over every timestep row, split across OpenMP workers for
/// large rasters.  Guarded by openmp_enabled(): without OpenMP the
/// std::thread fallback costs more than the row work it would hide, and the
/// grain hint keeps small rasters on the serial path either way.
template <typename RowFn>
void for_each_row(std::size_t timesteps, std::size_t row_elements, const RowFn& row_fn) {
  if (openmp_enabled() && timesteps > 1) {
    parallel_for(0, timesteps, row_fn, row_elements);
  } else {
    for (std::size_t t = 0; t < timesteps; ++t) row_fn(t);
  }
}

/// Rescans a row the slow scalar way to name the offending element once the
/// per-row OR check has tripped.
[[noreturn]] void throw_out_of_range(const std::uint8_t* src, std::size_t channels,
                                     unsigned bits) {
  const unsigned mask = (1u << bits) - 1u;
  for (std::size_t c = 0; c < channels; ++c) {
    R4NCL_CHECK(src[c] <= mask, "element value " << int(src[c]) << " exceeds " << bits
                                                 << "-bit range");
  }
  throw Error("pack_elements range check tripped but no offending element found");
}

}  // namespace

PackedRaster pack_elements(std::span<const std::uint8_t> values, std::size_t timesteps,
                           std::size_t channels, unsigned bits) {
  R4NCL_CHECK(valid_payload_bits(bits), "bits_per_element must be 1/2/4/8, got " << bits);
  R4NCL_CHECK(values.size() == timesteps * channels,
              "pack_elements: " << values.size() << " values for a " << timesteps << "x"
                                << channels << " raster");
  PackedRaster out;
  out.timesteps = static_cast<std::uint32_t>(timesteps);
  out.channels = static_cast<std::uint32_t>(channels);
  out.bits_per_element = static_cast<std::uint8_t>(bits);
  const std::size_t row_bytes = out.row_bytes();
  const unsigned mask = (1u << bits) - 1u;
  out.payload.assign(timesteps * row_bytes, 0);
  // Encoding is kept serial: a row whose OR-accumulator exceeds the element
  // range must throw from a deterministic (first-offender) position, which a
  // parallel split would not guarantee.  Decode is the replay hot path, not
  // encode, so nothing is lost.
  for (std::size_t t = 0; t < timesteps; ++t) {
    const std::uint8_t* src = values.data() + t * channels;
    std::uint8_t* row = out.payload.data() + t * row_bytes;
    std::uint8_t seen = 0;
    switch (bits) {
      case 1: seen = encode_row<1>(src, row, channels); break;
      case 2: seen = encode_row<2>(src, row, channels); break;
      case 4: seen = encode_row<4>(src, row, channels); break;
      default: seen = encode_row<8>(src, row, channels); break;
    }
    if (seen > mask) throw_out_of_range(src, channels, bits);
  }
  return out;
}

std::vector<std::uint8_t> unpack_elements(const PackedRaster& packed) {
  std::vector<std::uint8_t> out;
  unpack_elements_into(packed, out);
  return out;
}

void unpack_elements_into(const PackedRaster& packed, std::vector<std::uint8_t>& out) {
  R4NCL_CHECK(valid_payload_bits(packed.bits_per_element),
              "bits_per_element must be 1/2/4/8, got " << int(packed.bits_per_element));
  const std::size_t row_bytes = packed.row_bytes();
  R4NCL_CHECK(packed.payload.size() == packed.timesteps * row_bytes,
              "packed payload size mismatch");
  const std::size_t channels = packed.channels;
  out.resize(static_cast<std::size_t>(packed.timesteps) * channels);
  const auto decode = [&](auto bits_tag) {
    for_each_row(packed.timesteps, channels, [&](std::size_t t) {
      decode_row<decltype(bits_tag)::value>(packed.payload.data() + t * row_bytes,
                                            out.data() + t * channels, channels);
    });
  };
  switch (packed.bits_per_element) {
    case 1: decode(std::integral_constant<unsigned, 1>{}); break;
    case 2: decode(std::integral_constant<unsigned, 2>{}); break;
    case 4: decode(std::integral_constant<unsigned, 4>{}); break;
    default: decode(std::integral_constant<unsigned, 8>{}); break;
  }
}

std::size_t stored_bytes(const PackedRaster& packed, std::size_t header_bytes) {
  return packed.payload_bytes() + header_bytes;
}

}  // namespace r4ncl::compress
