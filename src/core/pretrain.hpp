// Pre-training phase (Alg. 1 lines 1–5).
//
// The frozen prefix that latent replay reuses is the pre-trained network, so
// its weights follow from the configuration alone: every call trains a fresh
// network from `PretrainConfig` (about 1.3 s at half scale and 2.7 s at full
// scale in a release build on a 4-core host) and reads and writes no file.
#pragma once

#include <cstdint>

#include "data/tasks.hpp"
#include "snn/trainer.hpp"

namespace r4ncl::core {

/// Full description of the pre-training experiment.
struct PretrainConfig {
  snn::NetworkConfig network;
  data::ShdSynthParams data_params;
  data::TaskSplitParams split;
  std::size_t epochs = 12;
  std::size_t batch_size = 16;
  float lr = 1e-3f;  // η_pre (Alg. 1 line 2)
  std::uint64_t shuffle_seed = 77;
};

/// A pre-trained network plus the task splits it was trained against.
struct PretrainedScenario {
  snn::SnnNetwork net;
  data::ClassIncrementalTasks tasks;
  /// Old-task test accuracy after pre-training (native timestep, fixed θ).
  double pretrain_accuracy = 0.0;
};

/// Builds the task splits of `config` and pre-trains a fresh network on the
/// old classes.  `verbose` logs per-epoch progress.
PretrainedScenario make_pretrained_scenario(const PretrainConfig& config, bool verbose = false);

}  // namespace r4ncl::core
