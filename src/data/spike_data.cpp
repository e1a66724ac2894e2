#include "data/spike_data.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

#include "util/error.hpp"

namespace r4ncl::data {

namespace {
std::atomic<std::uint64_t> g_batch_allocations{0};
}  // namespace

bool ensure_batch_shape(Tensor& batch, std::size_t timesteps, std::size_t batch_count,
                        std::size_t channels) {
  if (batch.rank() == 3 && batch.dim(0) == timesteps && batch.dim(1) == batch_count &&
      batch.dim(2) == channels) {
    return false;
  }
  batch = Tensor(timesteps, batch_count, channels);
  g_batch_allocations.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t batch_tensor_allocations() noexcept {
  return g_batch_allocations.load(std::memory_order_relaxed);
}

std::size_t SpikeRaster::spike_count() const noexcept {
  std::size_t n = 0;
  for (std::uint8_t b : bits) n += b != 0 ? 1 : 0;
  return n;
}

double SpikeRaster::density() const noexcept {
  return bits.empty() ? 0.0
                      : static_cast<double>(spike_count()) / static_cast<double>(bits.size());
}

SpikeRaster time_rescale(const SpikeRaster& raster, std::size_t new_timesteps,
                         TimeRescaleMethod method) {
  R4NCL_CHECK(new_timesteps > 0, "new_timesteps must be positive");
  if (new_timesteps == raster.timesteps) return raster;
  SpikeRaster out(new_timesteps, raster.channels);
  const std::size_t T = raster.timesteps;
  for (std::size_t tn = 0; tn < new_timesteps; ++tn) {
    // Source bin [lo, hi) for target step tn; uses exact integer arithmetic so
    // all source steps are covered with no overlap.
    const std::size_t lo = tn * T / new_timesteps;
    std::size_t hi = (tn + 1) * T / new_timesteps;
    if (hi <= lo) hi = lo + 1;
    if (method == TimeRescaleMethod::kSubsample) {
      // Representative step = first of the bin (matches the paper's Fig. 7
      // decompression convention of placing spikes at group starts).
      const std::size_t src = std::min(lo, T - 1);
      for (std::size_t c = 0; c < raster.channels; ++c) {
        out.bits[tn * out.channels + c] = raster.bits[src * raster.channels + c];
      }
    } else {
      for (std::size_t t = lo; t < hi && t < T; ++t) {
        for (std::size_t c = 0; c < raster.channels; ++c) {
          out.bits[tn * out.channels + c] |= raster.bits[t * raster.channels + c];
        }
      }
    }
  }
  return out;
}

Dataset time_rescale(const Dataset& dataset, std::size_t new_timesteps,
                     TimeRescaleMethod method) {
  Dataset out;
  out.reserve(dataset.size());
  for (const auto& s : dataset) {
    out.push_back({time_rescale(s.raster, new_timesteps, method), s.label});
  }
  return out;
}

Tensor make_batch(const Dataset& dataset, std::span<const std::size_t> indices) {
  R4NCL_CHECK(!indices.empty(), "empty batch");
  const SpikeRaster& first = dataset.at(indices[0]).raster;
  Tensor batch(first.timesteps, indices.size(), first.channels);
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const SpikeRaster& r = dataset.at(indices[b]).raster;
    R4NCL_CHECK(r.timesteps == first.timesteps && r.channels == first.channels,
                "raster shape mismatch inside batch");
    fill_batch_column(batch, b, r);
  }
  return batch;
}

void fill_batch_column(Tensor& batch, std::size_t b, const SpikeRaster& raster) {
  R4NCL_CHECK(batch.rank() == 3, "batch must be a (T x B x C) cube");
  R4NCL_CHECK(raster.timesteps == batch.dim(0) && b < batch.dim(1) &&
                  raster.channels == batch.dim(2),
              "raster " << raster.timesteps << "x" << raster.channels
                        << " does not fit batch column " << b);
  for (std::size_t t = 0; t < raster.timesteps; ++t) {
    for (std::size_t c = 0; c < raster.channels; ++c) {
      batch(t, b, c) = static_cast<float>(raster.bits[t * raster.channels + c]);
    }
  }
}

Tensor raster_to_batch(const SpikeRaster& raster) {
  Tensor batch(raster.timesteps, 1, raster.channels);
  for (std::size_t t = 0; t < raster.timesteps; ++t) {
    for (std::size_t c = 0; c < raster.channels; ++c) {
      batch(t, 0, c) = static_cast<float>(raster.bits[t * raster.channels + c]);
    }
  }
  return batch;
}

SpikeRaster batch_to_raster(const Tensor& batch, std::size_t batch_index) {
  R4NCL_CHECK(batch.rank() == 3, "batch must be (T × B × C)");
  R4NCL_CHECK(batch_index < batch.dim(1), "batch index out of range");
  SpikeRaster r(batch.dim(0), batch.dim(2));
  for (std::size_t t = 0; t < r.timesteps; ++t) {
    for (std::size_t c = 0; c < r.channels; ++c) {
      r.bits[t * r.channels + c] = batch(t, batch_index, c) > 0.5f ? 1 : 0;
    }
  }
  return r;
}

Dataset take_per_class(const Dataset& dataset, std::span<const std::int32_t> classes,
                       std::size_t per_class) {
  const std::set<std::int32_t> keep(classes.begin(), classes.end());
  std::map<std::int32_t, std::size_t> taken;
  Dataset out;
  for (const auto& s : dataset) {
    if (!keep.contains(s.label)) continue;
    if (taken[s.label] >= per_class) continue;
    ++taken[s.label];
    out.push_back(s);
  }
  return out;
}

std::vector<std::int32_t> classes_of(const Dataset& dataset) {
  std::set<std::int32_t> seen;
  for (const auto& s : dataset) seen.insert(s.label);
  return {seen.begin(), seen.end()};
}

}  // namespace r4ncl::data
