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
// Format: util/serialize tagged sections — "R4CK" + version (4: META is the
// run_fingerprint() pair list; versions 1–3 stored a typed field list and
// are rejected with the pinned "unsupported checkpoint version" error),
// "META" (the fingerprint and the unit cursor, compared pair by pair with a
// pinned mismatch error before any state is touched), network
// ("SNET"/"ARCH"), "OPTM" (optional Adam moments), engine ("SRLE" +
// per-shard "LRBF"), "RNGS", "PROG" (the run result so far: rows and cost
// totals), "KEND".  Loads validate every length and count against the
// remaining file size, so corrupt or truncated checkpoints fail with the
// pinned r4ncl::Error — no crash, no silent partial load, no allocation
// blow-up.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "snn/network.hpp"
#include "snn/optimizer.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {

/// Everything that pins a run, as ordered (key, value) text pairs.
using RunFingerprint = std::vector<std::pair<std::string, std::string>>;

/// The fingerprint a run's checkpoints carry and a resume must match: every
/// run-config field that changes the run's future, and the size of the data
/// it runs on.  It holds the run kind ("sequential" or "continual") and unit
/// count (tasks or epochs); every NclMethodConfig field except threads
/// (threads=N is bit-identical to 1) and the retired replay_stream and
/// prefetch; every run-config field except verbose; and the sample count of
/// each task set the engine reads, which scale= moves.  Floats print in
/// their shortest exact form, enums by their to_string() names.
[[nodiscard]] RunFingerprint run_fingerprint(const ClRunConfig& config,
                                             const data::ClassIncrementalTasks& tasks);
[[nodiscard]] RunFingerprint run_fingerprint(const SequentialRunConfig& config,
                                             const data::SequentialTasks& tasks);

/// What a checkpoint's META section holds.
struct CheckpointMeta {
  RunFingerprint fingerprint;
  /// First unit the resumed process must execute (== units completed).
  std::uint64_t next_unit = 0;
};

/// Everything save_checkpoint()/load_checkpoint() carry besides the network,
/// optimizer, and engine (which serialize themselves): the META, the run's
/// Rng streams, and the completed portion of the run result.  Only the
/// result of the fingerprint's kind is serialized, without its method name
/// and insertion layer: the resuming engine sets those from its config.
struct Checkpoint {
  CheckpointMeta meta;
  /// The per-unit stream (seed_rng / epoch_rng) and the replay-draw stream.
  Rng::State unit_rng;
  Rng::State replay_rng;

  SequentialRunResult sequential;  // a sequential run's payload
  ClRunResult continual;           // a continual run's payload
};

/// Writes one complete checkpoint.  `optimizer` may be null (run_sequential
/// uses a fresh per-task optimizer, so there is nothing to persist at its
/// task boundaries).  Throws r4ncl::Error on any I/O failure.
void save_checkpoint(const std::string& path, const Checkpoint& ck,
                     const snn::SnnNetwork& net, const snn::AdamOptimizer* optimizer,
                     const ShardedReplayEngine& engine);

/// Reads a checkpoint back: compares the stored fingerprint with `expected`
/// pair by pair and throws "checkpoint mismatch: <key> was '<stored>', this
/// run expects '<expected>'" at the first difference, checks the unit
/// cursor against the verified unit count, then restores the
/// network, optimizer (when non-null — must match the saved presence), and
/// engine in place and returns the carried state.  Corrupt or truncated
/// files throw r4ncl::Error before any multi-GB allocation.
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path,
                                         const RunFingerprint& expected,
                                         snn::SnnNetwork& net,
                                         snn::AdamOptimizer* optimizer,
                                         ShardedReplayEngine& engine);

}  // namespace r4ncl::core
