// Lossy spike compression/decompression along the time axis (paper Fig. 7,
// adopted from SpikingLR).
//
// With ratio r the source timesteps fall into groups of r (the last may be
// shorter), and the codec stores one level per (group × channel); a nonzero
// raster cell counts as one spike.  The binary strategies (latent_bits == 0)
// store one bit:
//   kSubsample      — the group's first cell (paper Fig. 7)
//   kGroupOr        — any spike in the group (keeps bursts alive)
//   kGroupMajority  — more than half of the group's actual length spiked
// and decompression re-expands it to a spike at the group's first slot.  The
// quantized path (latent_bits 1/2/4/8; Ravaglia et al., quantized latent
// replays) stores the group's spike *count* as a latent_bits-wide code
// (uniform quantizer over [0, ratio], deterministic round-half-up) and
// reconstructs that many spikes at the group's leading slots.  8 bits is
// exact for any ratio <= 255; narrower codes trade bounded count error (half
// an LSB plus integer rounding) for proportionally smaller payloads — the
// knob that stretches a fixed replay byte budget
// (see tests/test_quantized_latents.cpp).
//
// compress_packed()/decompress_packed_into() are the one stored codec path
// for every configuration.  compress()/decompress() are the raster-level
// Fig. 7 reference that tests/test_spike_codec.cpp (which reproduces the
// paper's 14 → 7 → 14-bit example) and the compression demo compare against.
#pragma once

#include <cstdint>
#include <string_view>

#include "compress/bitpack.hpp"
#include "data/spike_data.hpp"

namespace r4ncl::compress {

/// How a group of `ratio` source timesteps maps to one compressed bit.
enum class CodecStrategy : std::uint8_t {
  kSubsample,      // keep the first bit of each group (paper Fig. 7)
  kGroupOr,        // OR over the group
  kGroupMajority,  // 1 iff more than half the group spiked
};

/// Canonical lowercase name.
[[nodiscard]] constexpr std::string_view to_string(CodecStrategy strategy) noexcept {
  constexpr std::string_view kNames[] = {"subsample", "group_or", "group_majority"};
  return kNames[static_cast<std::size_t>(strategy)];
}

/// Codec configuration.
struct CodecConfig {
  std::uint32_t ratio = 2;  // source timesteps per compressed bit
  CodecStrategy strategy = CodecStrategy::kSubsample;
  /// Stored bits per (group × channel) element: 0 stores one `strategy` bit;
  /// 1/2/4/8 switches to the quantized group-count payload (which supersedes
  /// `strategy`).
  std::uint8_t latent_bits = 0;

  [[nodiscard]] bool quantized() const noexcept { return latent_bits > 0; }
};

/// Throws unless `config` is a codec: ratio >= 1, latent_bits 0/1/2/4/8, and
/// ratio <= 255 for the quantized path (its levels are byte-wide counts).
void check_codec(const CodecConfig& config);

/// Quantizes a group spike count (<= ratio) to a latent_bits-wide level:
/// uniform over [0, ratio], round half up.  Exact when 2^bits - 1 >= ratio.
[[nodiscard]] std::uint32_t quantize_count(std::uint32_t count, std::uint32_t ratio,
                                           unsigned bits);

/// Reconstructed count for a level (round half up); inverse of
/// quantize_count() whenever the quantizer is exact, and a fixed point of
/// quantize∘dequantize at every depth.
[[nodiscard]] std::uint32_t dequantize_count(std::uint32_t level, std::uint32_t ratio,
                                             unsigned bits);

/// Raster-level reference of the binary strategies: output has
/// ceil(T / ratio) timesteps of 0/1 strategy bits.
data::SpikeRaster compress(const data::SpikeRaster& raster, const CodecConfig& config);

/// Raster-level reference decode to `original_timesteps` steps: each
/// compressed bit is placed at its group's first slot, remaining slots zero
/// (Fig. 7 bottom row).
data::SpikeRaster decompress(const data::SpikeRaster& compressed,
                             std::size_t original_timesteps, const CodecConfig& config);

/// Compress + bit-pack in one step (what the latent-replay buffer stores):
/// one level per (group × channel), packed at latent_bits bits per element
/// (1 bit for the binary strategies).
PackedRaster compress_packed(const data::SpikeRaster& raster, const CodecConfig& config);

/// Unpack + decompress in one step.
data::SpikeRaster decompress_packed(const PackedRaster& packed,
                                    std::size_t original_timesteps,
                                    const CodecConfig& config);

/// decompress_packed() into a caller-owned raster, reusing its allocation
/// when the geometry already matches — the streaming-replay scratch path.
/// `levels_scratch`, when given, is reused for the intermediate level codes
/// so a minibatch cursor allocates nothing in steady state.
void decompress_packed_into(const PackedRaster& packed, std::size_t original_timesteps,
                            const CodecConfig& config, data::SpikeRaster& out,
                            std::vector<std::uint8_t>* levels_scratch = nullptr);

/// Fraction of spikes surviving a compress→decompress round trip; a cheap
/// information-retention proxy used by the codec ablation.
double spike_retention(const data::SpikeRaster& original, const CodecConfig& config);

}  // namespace r4ncl::compress
