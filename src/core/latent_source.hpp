// Frozen-prefix memo: the latents of a dataset at the insertion layer.
//
// Latent replay freezes every hidden layer below the insertion layer, so the
// latent of an input never changes during a run.  frozen_latents() is the
// one place the run engines run that prefix, and each engine calls it once
// per set per run-engine call: TS_replay at preparation, TS_cl once per CL
// phase (once per task in run_sequential), each rescaled test set once per
// run, and the just-learned-class recordings.  Every CL epoch then trains on
// A_new as returned, and every evaluation runs only the learning layers.
//
// The prefix runs over contiguous batch_size blocks in dataset order.  The
// adaptive threshold couples each latent to its block, so each consumer
// builds its set at its own blocking (training: the method's batch size;
// evaluation: 32).  Latents are 0/1 rasters, held as plain samples: the
// compressed store of the modelled device is the replay buffer.
//
// The modelled device has no memory to cache latents in, so the engines
// charge the work of the one prefix pass (`stats`) wherever Alg. 1 runs the
// prefix: once per CL epoch for A_new.  Armed runs time each pass
// (core.prefix_seconds) and count its samples (core.prefix_samples).
#pragma once

#include <cstddef>

#include "data/spike_data.hpp"
#include "snn/network.hpp"

namespace r4ncl::core {

/// Runs the frozen prefix [0, insertion) over `inputs` in contiguous
/// batch_size blocks and returns the latent dataset at the insertion point,
/// adding the pass's work to `stats` when non-null.  With insertion == 0 (or
/// no inputs) there is no prefix: `inputs` comes back as it went in, without
/// a copy, so callers move their rescaled datasets in.
[[nodiscard]] data::Dataset frozen_latents(const snn::SnnNetwork& net, data::Dataset inputs,
                                           std::size_t insertion,
                                           const snn::ThresholdPolicy& policy,
                                           std::size_t batch_size, snn::SpikeOpStats* stats);

}  // namespace r4ncl::core
