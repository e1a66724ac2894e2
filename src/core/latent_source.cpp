#include "core/latent_source.hpp"

#include <algorithm>
#include <span>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace r4ncl::core {

PackedLatentSet::PackedLatentSet(const snn::SnnNetwork& net, const data::Dataset& dataset,
                                 std::size_t insertion, const snn::ThresholdPolicy& policy,
                                 std::size_t batch_size) {
  if (insertion == 0 || dataset.empty()) {
    passthrough_ = &dataset;
    return;
  }
  R4NCL_CHECK(batch_size > 0, "batch_size must be positive");
  obs::metrics().counter("core.prefix_samples").add(dataset.size());
  obs::TraceSpan span(obs::metrics(), "core.prefix_seconds");
  entries_.reserve(dataset.size());
  std::vector<std::size_t> indices(dataset.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  // Contiguous blocks in dataset order: the adaptive threshold observes
  // whole batches, so any other blocking would change the latents.
  for (std::size_t lo = 0; lo < indices.size(); lo += batch_size) {
    const std::size_t hi = std::min(indices.size(), lo + batch_size);
    const std::span<const std::size_t> idx(indices.data() + lo, hi - lo);
    const Tensor x = data::make_batch(dataset, idx);
    const Tensor latent = net.run_hidden(x, 0, insertion, policy, &prefix_stats_);
    for (std::size_t b = 0; b < idx.size(); ++b) {
      const data::SpikeRaster raster = data::batch_to_raster(latent, b);
      Entry e;
      e.label = dataset[idx[b]].label;
      e.use_aer = compress::aer_is_smaller(raster);
      if (e.use_aer) {
        e.aer = compress::aer_encode(raster);
      } else {
        e.packed = compress::pack(raster);
      }
      entries_.push_back(std::move(e));
    }
  }
}

snn::SampleSource PackedLatentSet::source() {
  return {size(), [this](std::size_t i) -> const data::Sample& { return fetch(i); }};
}

const data::Sample& PackedLatentSet::fetch(std::size_t i) {
  if (passthrough_ != nullptr) return (*passthrough_)[i];
  const Entry& e = entries_.at(i);
  if (e.use_aer) {
    compress::aer_decode_into(e.aer, scratch_.raster);
  } else {
    compress::unpack_into(e.packed, scratch_.raster);
  }
  scratch_.label = e.label;
  return scratch_;
}

}  // namespace r4ncl::core
