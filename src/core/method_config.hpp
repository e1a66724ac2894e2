// Method configurations for the continual-learning comparison.
//
// One struct parameterises every method evaluated in the paper:
//   * replay4ncl()    — the proposed methodology: reduced timestep (T* = 40),
//                       raw latent storage at T*, adaptive threshold,
//                       η_cl = η_pre / 100 (Sec. III).
//   * spiking_lr()    — the state of the art (Dequino et al.): T = 100,
//                       latent codec ratio 2, fixed threshold, η_cl = η_pre.
//   * spiking_lr_reduced(T) — SpikingLR with naive timestep reduction and no
//                       compensation (the Fig. 2b / Fig. 8 case study).
//   * naive_baseline() — no replay at all: plain fine-tuning on the new task
//                       (the catastrophic-forgetting baseline of Fig. 1a).
#pragma once

#include <cstdint>
#include <string>

#include "compress/spike_codec.hpp"
#include "core/latent_buffer.hpp"
#include "core/sharded_engine.hpp"
#include "data/spike_data.hpp"
#include "snn/network.hpp"

namespace r4ncl::core {

/// Pre-training learning rate shared by all methods (Alg. 1 line 2).
inline constexpr float kEtaPre = 1e-3f;

/// Everything that distinguishes one NCL method from another.
struct NclMethodConfig {
  std::string name = "method";
  /// Timesteps used for latent generation, CL training and deployment.
  std::size_t cl_timesteps = 100;
  /// Codec applied to stored latent activations (ratio 1 = raw).  Its
  /// latent_bits field selects the stored payload depth: 0 keeps the legacy
  /// binary path bit-identical, 1/2/4/8 store quantized group counts — the
  /// sub-byte knob that stretches replay_budget.capacity_bytes (Ravaglia et
  /// al.).
  compress::CodecConfig storage_codec{};
  /// CL-phase learning rate (Alg. 1: η_pre / 100 for Replay4NCL).
  float lr_cl = kEtaPre;
  /// Whether the Alg. 1 adaptive threshold controller is active.
  bool adaptive_threshold = false;
  /// Adaptive-rule adjustment interval (Alg. 1: 5).
  int adjust_interval = 5;
  /// How input data is re-binned onto cl_timesteps.
  data::TimeRescaleMethod rescale = data::TimeRescaleMethod::kGroupOr;
  /// Latent replay on/off (off = naive fine-tuning baseline).
  bool use_replay = true;
  /// Byte budget + eviction policy of the replay buffer (capacity 0 keeps
  /// the unbounded behaviour of the paper's single-task experiment).  The
  /// run engines mix the run seed into replay_budget.seed so reservoir
  /// eviction reproduces per run.
  ReplayBufferConfig replay_budget{};
  /// Per-task evolution of replay_budget.capacity_bytes: the run engines
  /// apply capacity_for_task() at every task boundary (the single-task
  /// engine counts as a 1-task stream) and the buffer re-evicts
  /// deterministically down to the new cap.  The default const schedule is
  /// never applied, so unscheduled runs stay bit-identical.  CLI knob:
  /// budget_schedule=const|linear:<start>:<end>|step:<task>:<bytes>.
  BudgetSchedule budget_schedule{};
  /// Feed per-sample replay outcomes (top-1 error) back into the buffer's
  /// importance scores after each draw (ShardedReplayEngine::report_outcome).
  /// Only consulted when replay_budget.policy is importance-aware; off, the
  /// importance policies rank purely on insert-time spike density.  CLI
  /// knob: importance_feedback=0|1.
  bool importance_feedback = true;
  /// Replay entries each CL epoch draws from the store and streams into
  /// training-batch assembly (ReplayStream); 0 = the whole store, streamed.
  /// A smaller draw bounds the per-epoch decompression + training cost when
  /// the store is large (the budgeted-stream hot path).
  std::size_t replay_samples_per_epoch = 0;
  /// Retired: the run engines always stream the per-epoch draw, and no
  /// library code reads this field.  It stays only because perfbench/ncl.cpp
  /// still assigns it; a benchmark change drops that assignment, and then
  /// the field goes.
  bool replay_stream = false;
  /// Replay-store sharding (ShardedReplayEngine): shards=1 (the default)
  /// keeps every run bit-identical to the single LatentReplayBuffer era;
  /// shards>1 splits the byte budget into independently locked shards routed
  /// by `shard_by` so concurrent device streams can share one engine.  CLI
  /// knobs: shards=<n>, shard_by=class|hash.
  ShardedEngineConfig replay_sharding{};
  /// Retired: the trainer assembles every minibatch synchronously, and no
  /// library code reads this field.  It stays only because perfbench/ncl.cpp
  /// still assigns it; a benchmark change drops that assignment, and then
  /// the field goes.
  bool prefetch = false;
  /// Worker count the run engines apply via set_num_threads() at run start
  /// (0 = leave the process-wide setting untouched).  The parallel kernels
  /// use fixed reduction orders, so any value is bit-identical to 1.
  /// CLI knob: threads=<n> (applied process-wide by core::init_runtime).
  int threads = 0;
  std::size_t batch_size = 16;

  /// Builds the ThresholdPolicy implied by this method.
  [[nodiscard]] snn::ThresholdPolicy policy() const;

  /// Copy storing latents at `bits` bits per element (0 restores the legacy
  /// binary payload); the method name gains a "-q<bits>" suffix so sweep
  /// tables stay self-describing.
  [[nodiscard]] NclMethodConfig with_latent_bits(std::uint8_t bits) const;

  static NclMethodConfig replay4ncl(std::size_t timesteps = 40);
  static NclMethodConfig spiking_lr();
  static NclMethodConfig spiking_lr_reduced(std::size_t timesteps);
  static NclMethodConfig naive_baseline();
};

}  // namespace r4ncl::core
