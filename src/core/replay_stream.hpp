// Streaming minibatch cursor over a latent-replay draw: the one way the run
// engines read A_LR.
//
// Decoding a k-entry draw up front holds k full (T × C) rasters before the
// first training batch is even assembled — the replay-assembly memory spike
// Pellegrini et al. and Ravaglia et al. identify as the real-time bottleneck
// of latent replay.  ReplayStream fuses decompression into batch assembly
// instead: entries decode at most one minibatch at a time into a reusable
// scratch pool, so peak replay-assembly memory is minibatch × raster bytes
// instead of k × raster bytes.  The draw itself is the engine's
// (ShardedReplayEngine::stream); the same Rng gives the same entries as
// ShardedReplayEngine::sample_into, and a whole-store draw reads the store
// in materialize() order.
//
// Two consumption modes share one cursor object:
//   * next()   — sequential minibatch spans (bench / direct consumers);
//   * fetch(i) — random access for trainers that shuffle the virtual
//                dataset: decodes drawn entry i into a single scratch slot,
//                valid until the next fetch()/next().
// Both charge decompress_bits per decoded entry, exactly as a decode up front
// does.
//
// The stream borrows the engine: it must outlive the stream and must not be
// mutated (add/evict) while the stream is open.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/sharded_engine.hpp"

namespace r4ncl::core {

class ReplayStream {
 public:
  /// Use ShardedReplayEngine::stream() instead of constructing directly.
  ReplayStream(const ShardedReplayEngine& engine, std::vector<std::size_t> drawn,
               std::size_t minibatch, snn::SpikeOpStats* stats);

  /// Entries in the draw.
  [[nodiscard]] std::size_t size() const noexcept { return drawn_.size(); }
  [[nodiscard]] bool empty() const noexcept { return drawn_.empty(); }
  [[nodiscard]] std::size_t minibatch() const noexcept { return minibatch_; }
  /// Global engine indices of the draw, in draw order.
  [[nodiscard]] const std::vector<std::size_t>& drawn() const noexcept { return drawn_; }
  /// Label of drawn entry `i` without decoding it.
  [[nodiscard]] std::int32_t label(std::size_t i) const;

  /// Sequential cursor: decodes the next min(minibatch, remaining) entries
  /// into the pool and returns a span over them, valid until the next call.
  /// Returns an empty span once the draw is exhausted.
  [[nodiscard]] std::span<const data::Sample> next();
  [[nodiscard]] bool done() const noexcept { return cursor_ >= drawn_.size(); }
  /// Restarts the cursor over the same draw (no new rng consumption; note
  /// that re-decoding charges decompress_bits again, like a second draw).
  void reset() noexcept { cursor_ = 0; }

  /// Random access: decodes drawn entry `i` into scratch slot 0 and returns
  /// it.  The reference is invalidated by the next fetch()/next() call —
  /// callers copy the sample into their batch tensor before advancing.
  [[nodiscard]] const data::Sample& fetch(std::size_t i);

  /// Entries decoded so far (fetch + next, double decodes counted).
  [[nodiscard]] std::size_t decoded() const noexcept { return decoded_; }
  /// High-water mark of scratch bytes held for decoded rasters — the
  /// replay-assembly footprint the streaming path exists to bound.
  [[nodiscard]] std::size_t peak_assembly_bytes() const noexcept { return peak_bytes_; }

 private:
  /// Decodes drawn entry `ordinal` into pool_[slot] and updates accounting.
  void decode_to_slot(std::size_t slot, std::size_t ordinal);
  void note_assembly_bytes(std::size_t live_slots) noexcept;

  const ShardedReplayEngine* engine_;
  std::vector<std::size_t> drawn_;
  std::size_t minibatch_;
  snn::SpikeOpStats* stats_;
  std::vector<data::Sample> pool_;
  std::vector<std::uint8_t> levels_scratch_;
  std::size_t cursor_ = 0;
  std::size_t decoded_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace r4ncl::core
