// Full-state checkpoint & bit-identical warm resume.
//
// Embedded neuromorphic deployments power-cycle, redeploy, and resume
// mid-mission; latent replay makes persistence tractable because the buffer
// already holds compact quantized payloads that byte-copy to disk without a
// decode.  A checkpoint captures *everything* a run's future depends on:
//   * network weights (with a verified architecture header),
//   * optimizer moment state, keyed by stable parameter paths,
//   * the full ShardedReplayEngine state per shard — logical entry order,
//     per-class accounting, importance scores, capacity, payloads as-is,
//   * the BudgetSchedule position (implied by the unit cursor + capacity),
//   * the stream/task cursor, and
//   * every Rng stream (SplitMix64 state plus the Box–Muller spare-normal
//     flag/value — dropping the spare would shift all subsequent draws).
// A run killed at any task/epoch boundary therefore resumes and finishes
// bit-identical to an uninterrupted run: equal weights, and a result that
// compares equal (==) as a whole, across every eviction policy and shard
// count (pinned in tests/test_checkpoint.cpp).
//
// Format: util/serialize tagged sections — "R4CK" + version (3: the result
// rows without wall-clock seconds; version 2 still carried them and version 1
// the retired replay_stream flag, and both are rejected with the pinned
// "unsupported checkpoint version" error), "META"
// (config fingerprint, verified field-by-field with pinned mismatch errors
// before any state is touched), network ("SNET"/"ARCH"), "OPTM" (optional
// Adam moments), engine ("SRLE" + per-shard "LRBF"), "RNGS", "PROG"
// (the run result so far: rows and cost totals), "KEND".  Loads validate
// every length and count against the remaining file size, so corrupt or
// truncated checkpoints fail with the pinned r4ncl::Error — no crash, no
// silent partial load, no allocation blow-up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "snn/network.hpp"
#include "snn/optimizer.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {

/// Which run engine produced a checkpoint; a sequential checkpoint cannot
/// resume a continual run (and vice versa).
enum class CheckpointKind : std::uint32_t {
  kSequential = 0,  // run_sequential — units are tasks
  kContinual = 1,   // run_continual_learning — units are epochs
};

/// Configuration fingerprint stored in (and verified against) a checkpoint.
/// Every field that changes the run's future behaviour is pinned: resuming
/// under a different policy, codec, shard layout, seed, or draw size is a
/// configuration error the loader rejects up front with a pinned
/// "checkpoint mismatch" Error, not a silently diverging run.
struct CheckpointMeta {
  CheckpointKind kind = CheckpointKind::kSequential;
  std::string method_name;
  std::string policy;    // canonical eviction-policy name
  std::string schedule;  // BudgetSchedule::spec()
  std::uint64_t capacity_bytes = 0;
  std::uint32_t codec_ratio = 1;
  std::uint32_t codec_strategy = 0;
  std::uint32_t latent_bits = 0;
  std::uint64_t cl_timesteps = 0;
  std::uint64_t shards = 1;
  std::string shard_by;
  std::uint64_t replay_samples = 0;
  bool importance_feedback = false;
  std::uint64_t batch_size = 0;
  std::uint64_t insertion_layer = 0;
  std::uint64_t seed = 0;
  /// Units (tasks/epochs) in the whole run.
  std::uint64_t total_units = 0;
  /// First unit the resumed process must execute (== units completed).
  std::uint64_t next_unit = 0;
};

/// Builds the fingerprint for a run; next_unit starts at 0.
[[nodiscard]] CheckpointMeta make_checkpoint_meta(CheckpointKind kind,
                                                  const NclMethodConfig& method,
                                                  std::size_t insertion_layer,
                                                  std::uint64_t seed,
                                                  std::size_t total_units);

/// Everything save_checkpoint()/load_checkpoint() carry besides the network,
/// optimizer, and engine (which serialize themselves): the fingerprint, the
/// run's Rng streams, and the completed portion of the run result.  Only the
/// result of meta.kind is serialized; its method name (and, for a continual
/// run, its insertion layer) load from the verified META.
struct Checkpoint {
  CheckpointMeta meta;
  /// The per-unit stream (seed_rng / epoch_rng) and the replay-draw stream.
  Rng::State unit_rng;
  Rng::State replay_rng;

  SequentialRunResult sequential;  // kSequential payload
  ClRunResult continual;           // kContinual payload
};

/// Writes one complete checkpoint.  `optimizer` may be null (run_sequential
/// uses a fresh per-task optimizer, so there is nothing to persist at its
/// task boundaries).  Throws r4ncl::Error on any I/O failure.
void save_checkpoint(const std::string& path, const Checkpoint& ck,
                     const snn::SnnNetwork& net, const snn::AdamOptimizer* optimizer,
                     const ShardedReplayEngine& engine);

/// Reads a checkpoint back: verifies the stored fingerprint against
/// `expected` (all fields except next_unit; pinned mismatch errors), then
/// restores the network, optimizer (when non-null — must match the saved
/// presence), and engine in place and returns the carried state.  Corrupt or
/// truncated files throw r4ncl::Error before any multi-GB allocation.
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path,
                                         const CheckpointMeta& expected,
                                         snn::SnnNetwork& net,
                                         snn::AdamOptimizer* optimizer,
                                         ShardedReplayEngine& engine);

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

/// run_sequential / run_continual_learning with checkpoint/resume wired in.
/// With default-constructed options these are bit-identical to the 3-arg
/// forms.  When options.stop_after_units cuts the run short, the returned
/// result holds only the completed rows (the checkpoint carries them too).
SequentialRunResult run_sequential(snn::SnnNetwork& net, const data::SequentialTasks& tasks,
                                   const SequentialRunConfig& config,
                                   const CheckpointOptions& options);
ClRunResult run_continual_learning(snn::SnnNetwork& net,
                                   const data::ClassIncrementalTasks& tasks,
                                   const ClRunConfig& config,
                                   const CheckpointOptions& options);

}  // namespace r4ncl::core
