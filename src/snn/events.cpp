#include "snn/events.hpp"

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace r4ncl::snn {

BatchEventList events_from_batch(const Tensor& x) {
  R4NCL_CHECK(x.rank() == 3, "events_from_batch needs a (T × B × C) cube");
  BatchEventList out;
  out.timesteps = x.dim(0);
  out.batch = x.dim(1);
  out.channels = x.dim(2);
  const std::size_t rows = out.timesteps * out.batch;
  out.offsets.resize(rows + 1);
  const float* p = x.raw();
  const std::size_t B = out.batch, C = out.channels;
  // Rows come out t-major and each row's channels ascending, the order the
  // bit-identity contract requires.  Each (t, b) row is independent, so both
  // passes parallelise over rows with disjoint writes — the result is
  // byte-identical at any thread count.
  // Pass 1: count the spikes of each row (and whether any cell holds
  // neither 0 nor 1), then CSR offsets by exclusive prefix sum.
  std::vector<std::uint32_t> counts(rows);
  std::vector<std::uint8_t> non_spike(rows, 0);
  parallel_for(
      0, rows,
      [&](std::size_t r) {
        const float* row = p + r * C;
        std::uint32_t n = 0;
        std::uint32_t bad = 0;
        // Branch-free so the loop vectorizes (this pass touches every
        // element of the cube — it must run at memory speed).
        for (std::size_t c = 0; c < C; ++c) {
          const float v = row[c];
          n += v != 0.0f ? 1u : 0u;
          bad += (v != 0.0f && v != 1.0f) ? 1u : 0u;
        }
        counts[r] = n;
        non_spike[r] = bad != 0 ? 1 : 0;
      },
      C);
  std::uint32_t cursor = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (non_spike[r] != 0) {
      for (std::size_t c = 0; c < C; ++c) {
        const float v = p[r * C + c];
        R4NCL_CHECK(v == 0.0f || v == 1.0f, "layer input must be 0/1 spikes; cell (t="
                                                << r / B << ", b=" << r % B << ", c=" << c
                                                << ") holds " << v);
      }
    }
    out.offsets[r] = cursor;
    cursor += counts[r];
  }
  out.offsets[rows] = cursor;
  // Pass 2: fill — every row writes its own [offsets[r], offsets[r+1]) range.
  out.channel.resize(cursor);
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
            if (row[q] != 0.0f) out.channel[w++] = static_cast<std::uint32_t>(q);
          }
        }
        for (; c < C; ++c) {
          if (row[c] != 0.0f) out.channel[w++] = static_cast<std::uint32_t>(c);
        }
      },
      C);
  return out;
}

}  // namespace r4ncl::snn
