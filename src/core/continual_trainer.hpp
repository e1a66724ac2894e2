// The continual-learning engine implementing Alg. 1 for every method.
//
// Phases (Alg. 1):
//   1. Network preparation — split the pre-trained network at the LR
//      insertion layer; run the frozen prefix over TS_replay (under the
//      method's threshold policy and timestep setting) and store the
//      resulting latent activations, codec-compressed, in the replay buffer.
//   2. NCL training — per epoch: A_new = frozen-prefix inference of TS_cl
//      (line 23), draw A_LR from the replay store and stream it into batch
//      assembly (core::ReplayStream), and train the learning layers on the
//      shuffled union A_new ∪ A_LR with the method's η_cl and threshold
//      policy (lines 24–32).  The host computes A_new once per run
//      (core::frozen_latents) and charges that inference to every epoch.
//
// run_sequential (core/sequential.hpp) shares this engine's preparation,
// epoch and checkpoint steps; both are defined in continual_trainer.cpp.
//
// All modelled latency/energy is charged from the event counts of the work
// Alg. 1 performs (frozen inference, decompression, forward/backward of the
// learning layers); evaluation passes are never charged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/latent_buffer.hpp"
#include "core/method_config.hpp"
#include "data/tasks.hpp"
#include "metrics/accuracy.hpp"
#include "snn/trainer.hpp"

namespace r4ncl::core {

/// One continual-learning run = (method, insertion layer, epochs).
struct ClRunConfig {
  NclMethodConfig method;
  /// LR insertion layer j ∈ [0, num_hidden]; hidden layers < j are frozen.
  std::size_t insertion_layer = 3;
  std::size_t epochs = 50;
  /// Evaluate old/new accuracy every k epochs (1 = every epoch); the final
  /// epoch is always evaluated.
  std::size_t eval_every = 1;
  std::uint64_t seed = 2024;
  bool verbose = false;
};

/// Per-epoch result row (the series plotted in Figs. 8, 11, 13).
struct ClEpochRow {
  std::size_t epoch = 0;
  double loss = 0.0;
  /// Top-1 accuracies (−1 when this epoch was not evaluated).
  double acc_old = -1.0;
  double acc_new = -1.0;
  /// Modelled cost of this epoch's training work.
  double latency_ms = 0.0;
  double energy_uj = 0.0;
  snn::SpikeOpStats stats;

  [[nodiscard]] bool operator==(const ClEpochRow&) const noexcept = default;
};

/// Complete result of a continual-learning run.  Every field is a
/// deterministic function of the configuration, so a resumed run equals an
/// uninterrupted one as a whole (epoch times live in the obs registry).
struct ClRunResult {
  std::string method_name;
  std::size_t insertion_layer = 0;
  std::vector<ClEpochRow> rows;
  /// Latent-memory footprint of the replay buffer (Fig. 12).
  std::size_t latent_memory_bytes = 0;
  /// Cost of the one-time preparation phase (latent generation).
  snn::SpikeOpStats prep_stats;
  double prep_latency_ms = 0.0;
  double prep_energy_uj = 0.0;
  /// Final accuracies (last evaluated epoch).
  double final_acc_old = 0.0;
  double final_acc_new = 0.0;

  /// Sum of per-epoch modelled training latency (ms) / energy (µJ),
  /// including the preparation phase.
  [[nodiscard]] double total_latency_ms() const noexcept;
  [[nodiscard]] double total_energy_uj() const noexcept;

  [[nodiscard]] bool operator==(const ClRunResult&) const = default;
};

/// Checkpoint/resume knobs of a run — the CLI's checkpoint=, resume=, and
/// checkpoint_every= map straight onto these.
struct CheckpointOptions {
  /// Write a checkpoint here at every `every`-th completed unit (and at run
  /// end).  Empty = never save.
  std::string save_path;
  /// Resume from this checkpoint before executing any unit.  Empty = fresh
  /// run.  Resume and save may be combined (resume, then keep snapshotting).
  std::string resume_path;
  /// Save cadence in completed units; must be >= 1.
  std::size_t every = 1;
  /// Power-cycle drill: after completing this many units *in this process*,
  /// force a save (to save_path) and return the partial result — the caller
  /// restarts via resume=.  0 = run to completion.
  std::size_t stop_after_units = 0;

  [[nodiscard]] bool saving() const noexcept { return !save_path.empty(); }
  [[nodiscard]] bool resuming() const noexcept { return !resume_path.empty(); }
};

/// Runs one continual-learning scenario on a *copy*-modifiable network.
/// The network must already be pre-trained on the old classes; it is mutated
/// in place (clone it first to compare methods from the same checkpoint).
/// `ckpt` saves and resumes the run at epoch boundaries
/// (core/checkpoint.hpp); when its stop_after_units cuts the run short, the
/// result holds only the completed rows (the checkpoint carries them too).
ClRunResult run_continual_learning(snn::SnnNetwork& net,
                                   const data::ClassIncrementalTasks& tasks,
                                   const ClRunConfig& config,
                                   const CheckpointOptions& ckpt = {});

}  // namespace r4ncl::core
