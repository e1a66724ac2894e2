// Frozen-prefix memo: the latents of a dataset at the insertion layer.
//
// Latent replay freezes every hidden layer below the insertion layer, so the
// latent of an input never changes during a run.  PackedLatentSet is the one
// place the run engines run that prefix, and each engine builds a set once
// per run-engine call: TS_replay at preparation, TS_cl once per CL phase (once
// per task in run_sequential), each rescaled test set once per run, and the
// just-learned-class recordings.  Every CL epoch then fetches A_new from its
// set, and every evaluation runs only the learning layers over a source().
//
// The prefix runs over contiguous batch_size blocks in dataset order.  The
// adaptive threshold couples each latent to its block, so each consumer
// builds its set at its own blocking (training: the method's batch size;
// evaluation: 32).  Every raster is stored compressed: per sample the smaller
// of AER and 1-bit packing (compress::aer_is_smaller).  fetch(i) decodes into
// a single scratch slot, so batch assembly never holds the set densely.
//
// When insertion == 0 the "latents" are the raw input samples; the set
// borrows the dataset and fetch is a zero-copy passthrough.  The dataset must
// then outlive the set, so a temporary is rejected at compile time.
//
// The modelled device has no memory to cache latents in, so the engines
// charge prefix_stats() (the work of the set's one prefix pass) wherever
// Alg. 1 runs the prefix: once per CL epoch for A_new.  Decoding charges
// nothing.  Armed runs time each pass (core.prefix_seconds) and count its
// samples (core.prefix_samples).
#pragma once

#include <cstdint>
#include <vector>

#include "compress/aer.hpp"
#include "compress/bitpack.hpp"
#include "data/spike_data.hpp"
#include "snn/network.hpp"
#include "snn/trainer.hpp"

namespace r4ncl::core {

class PackedLatentSet {
 public:
  /// Runs the frozen prefix [0, insertion) over `dataset` in contiguous
  /// batch_size blocks, packing each latent raster as it is produced.
  /// With insertion == 0, borrows `dataset` (which must outlive the set).
  PackedLatentSet(const snn::SnnNetwork& net, const data::Dataset& dataset,
                  std::size_t insertion, const snn::ThresholdPolicy& policy,
                  std::size_t batch_size);
  /// A set may borrow its dataset, so it cannot be built from a temporary.
  PackedLatentSet(const snn::SnnNetwork& net, data::Dataset&& dataset, std::size_t insertion,
                  const snn::ThresholdPolicy& policy, std::size_t batch_size) = delete;

  [[nodiscard]] std::size_t size() const noexcept {
    return passthrough_ != nullptr ? passthrough_->size() : entries_.size();
  }
  /// Sample `i`, decoded into an internal scratch slot — valid until the
  /// next fetch() (the snn::SampleSource streaming contract).
  const data::Sample& fetch(std::size_t i);

  /// This set as a snn::SampleSource; it borrows the set.
  [[nodiscard]] snn::SampleSource source();

  /// Work of the set's one prefix pass (zero in passthrough mode).
  [[nodiscard]] const snn::SpikeOpStats& prefix_stats() const noexcept { return prefix_stats_; }

 private:
  struct Entry {
    bool use_aer = false;
    compress::PackedRaster packed;  // when !use_aer
    compress::AerRaster aer;        // when use_aer
    std::int32_t label = 0;
  };

  const data::Dataset* passthrough_ = nullptr;
  std::vector<Entry> entries_;
  data::Sample scratch_;
  snn::SpikeOpStats prefix_stats_;
};

}  // namespace r4ncl::core
