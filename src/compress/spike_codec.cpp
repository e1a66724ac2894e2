#include "compress/spike_codec.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace r4ncl::compress {

namespace {

/// Stored bits per level: latent_bits, or one strategy bit.
unsigned level_bits(const CodecConfig& config) {
  return config.quantized() ? config.latent_bits : 1u;
}

/// Level of a group of `len` source steps whose window (the whole group, or
/// only its first slot for kSubsample) holds `spikes` spikes.
std::uint8_t group_level(const CodecConfig& config, std::uint32_t spikes, std::size_t len) {
  if (config.quantized()) {
    return static_cast<std::uint8_t>(quantize_count(spikes, config.ratio, config.latent_bits));
  }
  switch (config.strategy) {
    case CodecStrategy::kSubsample: return static_cast<std::uint8_t>(spikes);
    case CodecStrategy::kGroupOr: return spikes > 0 ? 1 : 0;
    case CodecStrategy::kGroupMajority: return 2 * spikes > len ? 1 : 0;
  }
  return 0;
}

}  // namespace

void check_codec(const CodecConfig& config) {
  R4NCL_CHECK(config.ratio >= 1, "codec ratio must be >= 1");
  R4NCL_CHECK(config.latent_bits == 0 || valid_payload_bits(config.latent_bits),
              "latent_bits must be 0 (binary strategies) or 1/2/4/8, got "
                  << int(config.latent_bits));
  R4NCL_CHECK(!config.quantized() || config.ratio <= 255,
              "quantized codec supports ratio <= 255, got " << config.ratio);
}

std::uint32_t quantize_count(std::uint32_t count, std::uint32_t ratio, unsigned bits) {
  R4NCL_CHECK(valid_payload_bits(bits), "latent_bits must be 1/2/4/8, got " << bits);
  R4NCL_CHECK(ratio >= 1 && count <= ratio,
              "count " << count << " outside [0, ratio=" << ratio << "]");
  const std::uint32_t levels = (1u << bits) - 1u;
  // round(count * levels / ratio), half up, in exact integer arithmetic.
  return (2u * count * levels + ratio) / (2u * ratio);
}

std::uint32_t dequantize_count(std::uint32_t level, std::uint32_t ratio, unsigned bits) {
  R4NCL_CHECK(valid_payload_bits(bits), "latent_bits must be 1/2/4/8, got " << bits);
  const std::uint32_t levels = (1u << bits) - 1u;
  R4NCL_CHECK(ratio >= 1 && level <= levels,
              "level " << level << " outside [0, " << levels << "]");
  // round(level * ratio / levels), half up.
  return (2u * level * ratio + levels) / (2u * levels);
}

data::SpikeRaster compress(const data::SpikeRaster& raster, const CodecConfig& config) {
  check_codec(config);
  R4NCL_CHECK(!config.quantized(),
              "quantized codecs compress packed-side (compress_packed)");
  const std::size_t T = raster.timesteps;
  const std::size_t C = raster.channels;
  const std::size_t Tc = (T + config.ratio - 1) / config.ratio;
  data::SpikeRaster out(Tc, C);
  for (std::size_t tc = 0; tc < Tc; ++tc) {
    const std::size_t lo = tc * config.ratio;
    const std::size_t hi = std::min<std::size_t>(lo + config.ratio, T);
    for (std::size_t c = 0; c < C; ++c) {
      std::size_t count = 0;
      for (std::size_t t = lo; t < hi; ++t) count += raster.bits[t * C + c] != 0 ? 1 : 0;
      bool bit = false;
      switch (config.strategy) {
        case CodecStrategy::kSubsample: bit = raster.bits[lo * C + c] != 0; break;
        case CodecStrategy::kGroupOr: bit = count > 0; break;
        case CodecStrategy::kGroupMajority: bit = 2 * count > hi - lo; break;
      }
      out.bits[tc * C + c] = bit ? 1 : 0;
    }
  }
  return out;
}

data::SpikeRaster decompress(const data::SpikeRaster& compressed,
                             std::size_t original_timesteps, const CodecConfig& config) {
  check_codec(config);
  R4NCL_CHECK(!config.quantized(),
              "quantized codecs decompress packed-side (decompress_packed)");
  const std::size_t expected = (original_timesteps + config.ratio - 1) / config.ratio;
  R4NCL_CHECK(compressed.timesteps == expected,
              "compressed raster has " << compressed.timesteps << " steps, expected "
                                       << expected);
  const std::size_t C = compressed.channels;
  data::SpikeRaster out(original_timesteps, C);
  for (std::size_t tc = 0; tc < compressed.timesteps; ++tc) {
    const std::size_t t0 = tc * config.ratio;  // group start (Fig. 7 convention)
    for (std::size_t c = 0; c < C; ++c) {
      out.bits[t0 * C + c] = compressed.bits[tc * C + c] != 0 ? 1 : 0;
    }
  }
  return out;
}

PackedRaster compress_packed(const data::SpikeRaster& raster, const CodecConfig& config) {
  check_codec(config);
  const std::size_t T = raster.timesteps;
  const std::size_t C = raster.channels;
  const std::size_t ratio = config.ratio;
  const std::size_t Tc = (T + ratio - 1) / ratio;
  const bool first_slot_only =
      !config.quantized() && config.strategy == CodecStrategy::kSubsample;
  // A level depends only on its window's spike count and the group's length,
  // so one table per group length (at most two: full groups and a partial
  // tail) replaces a per-cell group_level() call on the encode path.
  std::vector<std::uint8_t> level_of;
  std::size_t level_of_len = 0;
  std::vector<std::uint32_t> spikes(C);
  std::vector<std::uint8_t> levels(Tc * C);
  for (std::size_t tc = 0; tc < Tc; ++tc) {
    const std::size_t lo = tc * ratio;
    const std::size_t len = std::min(ratio, T - lo);
    const std::size_t window = first_slot_only ? 1 : len;
    if (len != level_of_len) {
      level_of_len = len;
      level_of.resize(window + 1);
      for (std::size_t n = 0; n <= window; ++n) {
        level_of[n] = group_level(config, static_cast<std::uint32_t>(n), len);
      }
    }
    // Spike counts accumulate row by row, so the window's rows stream in order.
    std::fill(spikes.begin(), spikes.end(), 0u);
    for (std::size_t k = 0; k < window; ++k) {
      const std::uint8_t* row = raster.bits.data() + (lo + k) * C;
      for (std::size_t c = 0; c < C; ++c) spikes[c] += row[c] != 0 ? 1u : 0u;
    }
    std::uint8_t* level = levels.data() + tc * C;
    for (std::size_t c = 0; c < C; ++c) level[c] = level_of[spikes[c]];
  }
  return pack_elements(levels, Tc, C, level_bits(config));
}

data::SpikeRaster decompress_packed(const PackedRaster& packed,
                                    std::size_t original_timesteps,
                                    const CodecConfig& config) {
  data::SpikeRaster out;
  decompress_packed_into(packed, original_timesteps, config, out);
  return out;
}

void decompress_packed_into(const PackedRaster& packed, std::size_t original_timesteps,
                            const CodecConfig& config, data::SpikeRaster& out,
                            std::vector<std::uint8_t>* levels_scratch) {
  check_codec(config);
  const unsigned bits = level_bits(config);
  R4NCL_CHECK(packed.bits_per_element == bits,
              "payload stores " << int(packed.bits_per_element)
                                << " bits/element, codec expects " << bits);
  const std::size_t ratio = config.ratio;
  const std::size_t expected = (original_timesteps + ratio - 1) / ratio;
  R4NCL_CHECK(packed.timesteps == expected,
              "payload has " << packed.timesteps << " groups, expected " << expected);
  std::vector<std::uint8_t> local_levels;
  std::vector<std::uint8_t>& levels = levels_scratch ? *levels_scratch : local_levels;
  unpack_elements_into(packed, levels);
  // A level re-expands to its reconstructed count of spikes at the group's
  // leading slots: the bit itself for a binary strategy (Fig. 7's spike at
  // the group start), dequantize_count() for a quantized one.  Both are
  // nondecreasing in the level, so "slot k spikes" is the threshold test
  // "level >= min_level_over[k]" — one branch-free byte compare per cell.
  // No slot at or past the top level's count ever spikes; that count is at
  // most 255 (a quantized ratio), so the table need not cover every slot.
  const auto count_of = [&](std::uint32_t level) {
    return config.quantized() ? dequantize_count(level, config.ratio, bits) : level;
  };
  const std::uint32_t spiking_slots = count_of((1u << bits) - 1u);
  std::array<std::uint8_t, 255> min_level_over{};
  std::uint32_t level = 0;
  for (std::uint32_t k = 0; k < spiking_slots; ++k) {
    while (count_of(level) <= k) ++level;
    min_level_over[k] = static_cast<std::uint8_t>(level);
  }
  const std::size_t C = packed.channels;
  out.timesteps = original_timesteps;
  out.channels = C;
  out.bits.resize(original_timesteps * C);
  for (std::size_t tc = 0; tc < packed.timesteps; ++tc) {
    const std::size_t lo = tc * ratio;
    const std::size_t len = std::min(ratio, original_timesteps - lo);
    const std::size_t spiking = std::min<std::size_t>(len, spiking_slots);
    const std::uint8_t* level_row = levels.data() + tc * C;
    for (std::size_t k = 0; k < spiking; ++k) {
      std::uint8_t* dst = out.bits.data() + (lo + k) * C;
      const std::uint8_t threshold = min_level_over[k];
      for (std::size_t c = 0; c < C; ++c) dst[c] = level_row[c] >= threshold ? 1 : 0;
    }
    std::fill_n(out.bits.data() + (lo + spiking) * C, (len - spiking) * C, std::uint8_t{0});
  }
}

double spike_retention(const data::SpikeRaster& original, const CodecConfig& config) {
  const std::size_t before = original.spike_count();
  if (before == 0) return 1.0;
  const data::SpikeRaster round =
      decompress_packed(compress_packed(original, config), original.timesteps, config);
  return static_cast<double>(round.spike_count()) / static_cast<double>(before);
}

}  // namespace r4ncl::compress
