#include "core/latent_source.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace r4ncl::core {

data::Dataset frozen_latents(const snn::SnnNetwork& net, data::Dataset inputs,
                             std::size_t insertion, const snn::ThresholdPolicy& policy,
                             std::size_t batch_size, snn::SpikeOpStats* stats) {
  if (insertion == 0 || inputs.empty()) return inputs;
  R4NCL_CHECK(batch_size > 0, "batch_size must be positive");
  obs::metrics().counter("core.prefix_samples").add(inputs.size());
  obs::TraceSpan span(obs::metrics(), "core.prefix_seconds");
  data::Dataset latents;
  latents.reserve(inputs.size());
  std::vector<std::size_t> indices(inputs.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  // Contiguous blocks in dataset order: the adaptive threshold observes
  // whole batches, so any other blocking would change the latents.
  for (std::size_t lo = 0; lo < indices.size(); lo += batch_size) {
    const std::size_t hi = std::min(indices.size(), lo + batch_size);
    const std::span<const std::size_t> idx(indices.data() + lo, hi - lo);
    const Tensor latent =
        net.run_hidden(data::make_batch(inputs, idx), 0, insertion, policy, stats);
    for (std::size_t b = 0; b < idx.size(); ++b) {
      latents.push_back({data::batch_to_raster(latent, b), inputs[idx[b]].label});
    }
  }
  return latents;
}

}  // namespace r4ncl::core
