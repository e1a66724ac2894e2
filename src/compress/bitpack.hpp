// Bit-packing of per-cell element values for latent-memory accounting and
// storage.
//
// A grid of element values is stored as `bits_per_element` bits per
// (timestep × channel) cell, padded to a whole byte per *timestep row* — the
// layout a DMA engine would use to stream one timestep at a time into a
// neuromorphic core.  The spike codec (spike_codec.hpp) stores one level code
// per (group × channel) cell through this one container: 1 bit for the binary
// strategies (a raw raster at ratio 1), 2/4/8 bits for quantized group counts
// (Ravaglia et al.).  The byte-per-row padding is also what makes the paper's
// latent-memory savings land in the 20–21.88% band instead of exactly 20%
// (see memory_bytes() in core/latent_buffer.hpp).
//
// Decode/encode are byte-parallel: a constexpr 256-row table decodes every
// payload byte's 8/4/2 elements with one small copy, and the encoder folds a
// byte's worth of elements per shift/OR pass (SWAR), with an OpenMP row split
// for large decodes (guarded by openmp_enabled()).  unpack_elements_into
// reuses a caller-owned allocation — the streaming-replay scratch path.
// tests/test_bitpack_kernels.cpp pins kernel == scalar-reference exhaustively
// over all byte values at every depth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace r4ncl::compress {

/// Bit depths a packed payload may use: a whole number of elements per byte,
/// so no element straddles a byte boundary.
[[nodiscard]] constexpr bool valid_payload_bits(unsigned bits) noexcept {
  return bits == 1 || bits == 2 || bits == 4 || bits == 8;
}

/// A bit-packed raster plus its geometry.
struct PackedRaster {
  std::uint32_t timesteps = 0;
  std::uint32_t channels = 0;
  /// Stored bits per (timestep × channel) element: 1 (binary strategy bits)
  /// or 2/4/8 (quantized group counts).  Elements are packed LSB-first within
  /// each byte.
  std::uint8_t bits_per_element = 1;
  std::vector<std::uint8_t> payload;

  /// Bytes needed per timestep row (channels × bits_per_element bits,
  /// byte-padded).
  [[nodiscard]] std::size_t row_bytes() const noexcept {
    return (static_cast<std::size_t>(channels) * bits_per_element + 7u) / 8u;
  }

  /// Total payload bytes.
  [[nodiscard]] std::size_t payload_bytes() const noexcept { return payload.size(); }
};

/// Packs per-cell element values (row-major, each < 2^bits) at `bits` bits
/// per element.  Exact inverse of unpack_elements() — no quantization happens
/// here; callers reduce values to the target range first.
PackedRaster pack_elements(std::span<const std::uint8_t> values, std::size_t timesteps,
                           std::size_t channels, unsigned bits);

/// Element values of a packed raster at any bits_per_element, row-major.
std::vector<std::uint8_t> unpack_elements(const PackedRaster& packed);

/// unpack_elements() into a caller-owned vector (resized to fit), so a
/// streaming decoder can reuse one scratch allocation across entries.
void unpack_elements_into(const PackedRaster& packed, std::vector<std::uint8_t>& out);

/// Storage bytes for a packed raster including the fixed per-sample header
/// (geometry + label + codec metadata) a replay buffer must keep.
std::size_t stored_bytes(const PackedRaster& packed, std::size_t header_bytes);

}  // namespace r4ncl::compress
