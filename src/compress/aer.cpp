#include "compress/aer.hpp"

#include <functional>

#include "compress/bitpack.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace r4ncl::compress {

namespace {
constexpr std::uint8_t kDeltaEscape = 0xff;  // delta ≥ 255 → escape + u16 delta
}

AerRaster aer_encode(const data::SpikeRaster& raster) {
  R4NCL_CHECK(raster.channels < 0x10000, "AER channel field is u16");
  AerRaster out;
  out.timesteps = static_cast<std::uint32_t>(raster.timesteps);
  out.channels = static_cast<std::uint32_t>(raster.channels);
  std::size_t prev_t = 0;
  for (std::size_t t = 0; t < raster.timesteps; ++t) {
    for (std::size_t c = 0; c < raster.channels; ++c) {
      if (raster.bits[t * raster.channels + c] == 0) continue;
      std::size_t delta = t - prev_t;
      while (delta >= kDeltaEscape) {
        // Escape: emit 0xff + u16 chunk of the delta (handles long silences).
        out.payload.push_back(kDeltaEscape);
        const std::uint16_t chunk =
            delta > 0xffff ? 0xffff : static_cast<std::uint16_t>(delta);
        out.payload.push_back(static_cast<std::uint8_t>(chunk & 0xff));
        out.payload.push_back(static_cast<std::uint8_t>(chunk >> 8));
        delta -= chunk;
      }
      out.payload.push_back(static_cast<std::uint8_t>(delta));
      out.payload.push_back(static_cast<std::uint8_t>(c & 0xff));
      out.payload.push_back(static_cast<std::uint8_t>(c >> 8));
      prev_t = t;
      ++out.num_events;
    }
  }
  return out;
}

namespace {

/// Walks the encoded event stream in (t, channel) order without densifying
/// it, invoking visit(t, channel) once per event.
void aer_visit(const AerRaster& aer,
               const std::function<void(std::size_t t, std::size_t channel)>& visit) {
  std::size_t t = 0;
  std::size_t i = 0;
  std::uint32_t decoded = 0;
  while (i < aer.payload.size()) {
    std::size_t delta = 0;
    while (aer.payload[i] == kDeltaEscape) {
      R4NCL_CHECK(i + 2 < aer.payload.size(), "truncated AER escape");
      delta += static_cast<std::size_t>(aer.payload[i + 1]) |
               (static_cast<std::size_t>(aer.payload[i + 2]) << 8);
      i += 3;
      R4NCL_CHECK(i < aer.payload.size(), "truncated AER stream");
    }
    delta += aer.payload[i];
    ++i;
    R4NCL_CHECK(i + 1 < aer.payload.size(), "truncated AER channel");
    const std::size_t c = static_cast<std::size_t>(aer.payload[i]) |
                          (static_cast<std::size_t>(aer.payload[i + 1]) << 8);
    i += 2;
    t += delta;
    R4NCL_CHECK(t < aer.timesteps && c < aer.channels, "AER event out of bounds");
    visit(t, c);
    ++decoded;
  }
  R4NCL_CHECK(decoded == aer.num_events, "AER event count mismatch");
}

}  // namespace

data::SpikeRaster aer_decode(const AerRaster& aer) {
  data::SpikeRaster out(aer.timesteps, aer.channels);
  aer_visit(aer, [&out](std::size_t t, std::size_t c) { out.bits[t * out.channels + c] = 1; });
  return out;
}

void aer_decode_into(const AerRaster& aer, data::SpikeRaster& out) {
  out.timesteps = aer.timesteps;
  out.channels = aer.channels;
  out.bits.assign(static_cast<std::size_t>(aer.timesteps) * aer.channels, 0);
  aer_visit(aer, [&out](std::size_t t, std::size_t c) { out.bits[t * out.channels + c] = 1; });
}

BatchEventList events_from_batch(const Tensor& x) {
  R4NCL_CHECK(x.rank() == 3, "events_from_batch needs a (T × B × C) cube");
  BatchEventList out;
  out.timesteps = x.dim(0);
  out.batch = x.dim(1);
  out.channels = x.dim(2);
  const std::size_t rows = out.timesteps * out.batch;
  out.offsets.resize(rows + 1);
  const float* p = x.raw();
  const std::size_t C = out.channels;
  // Rows come out t-major and each row's channels ascending, the order the
  // bit-identity contract requires.  Each (t, b) row is independent, so both
  // passes parallelise over rows with disjoint writes — the result is
  // byte-identical at any thread count.
  // Pass 1: count the active channels of each row (and whether any value
  // departs from 1.0f), then CSR offsets by exclusive prefix sum.
  std::vector<std::uint32_t> counts(rows);
  std::vector<std::uint8_t> non_unit(rows, 0);
  parallel_for(
      0, rows,
      [&](std::size_t r) {
        const float* row = p + r * C;
        std::uint32_t n = 0;
        std::uint32_t nu = 0;
        // Branch-free so the loop vectorizes (this pass touches every
        // element of the cube — it must run at memory speed).
        for (std::size_t c = 0; c < C; ++c) {
          const float v = row[c];
          n += v != 0.0f ? 1u : 0u;
          nu += (v != 0.0f && v != 1.0f) ? 1u : 0u;
        }
        counts[r] = n;
        non_unit[r] = nu != 0 ? 1 : 0;
      },
      C);
  std::uint32_t cursor = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    out.offsets[r] = cursor;
    cursor += counts[r];
    if (non_unit[r] != 0) out.unit_values = false;
  }
  out.offsets[rows] = cursor;
  // Pass 2: fill — every row writes its own [offsets[r], offsets[r+1]) range.
  out.channel.resize(cursor);
  out.value.resize(cursor);
  parallel_for(
      0, rows,
      [&](std::size_t r) {
        const float* row = p + r * C;
        std::uint32_t w = out.offsets[r];
        // Quad-skip: spike rows are mostly zero, so test four elements per
        // branch and only fall into the per-element loop on a live quad.
        std::size_t c = 0;
        for (; c + 4 <= C; c += 4) {
          if (row[c] == 0.0f && row[c + 1] == 0.0f && row[c + 2] == 0.0f &&
              row[c + 3] == 0.0f) {
            continue;
          }
          for (std::size_t q = c; q < c + 4; ++q) {
            const float v = row[q];
            if (v == 0.0f) continue;
            out.channel[w] = static_cast<std::uint32_t>(q);
            out.value[w] = v;
            ++w;
          }
        }
        for (; c < C; ++c) {
          const float v = row[c];
          if (v == 0.0f) continue;
          out.channel[w] = static_cast<std::uint32_t>(c);
          out.value[w] = v;
          ++w;
        }
      },
      C);
  return out;
}

std::size_t aer_bytes(const data::SpikeRaster& raster) {
  // Encoding is cheap enough to just do; kept as a function for call sites
  // that only need the size.
  return aer_encode(raster).payload_bytes();
}

bool aer_is_smaller(const data::SpikeRaster& raster) {
  return aer_bytes(raster) < pack(raster).payload_bytes();
}

}  // namespace r4ncl::compress
