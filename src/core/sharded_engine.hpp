// Sharded replay engine: replay-as-a-service over N LatentReplayBuffer shards.
//
// One LatentReplayBuffer serves exactly one single-threaded run.  The fleet
// scenario — many independent continual learners sharing one constrained
// latent-memory region — needs a concurrent store, so ShardedReplayEngine
// splits the byte budget across `shards` independent LatentReplayBuffer units
// and routes every add/report/set_capacity by a shard key:
//   shard_by=class — uint32(label) % shards: one class's churn stays inside
//                    one shard, so class-balanced eviction pressure never
//                    crosses shard boundaries;
//   shard_by=hash  — FNV-1a over the raster payload (+ label): content-
//                    addressed spreading for label-skewed streams.
// Each shard owns a private mutex and a private rng stream (the base eviction
// seed xor-mixed per shard), so concurrent device streams contend only when
// they land on the same shard.
//
// Determinism contract: shards=1 is *bit-identical* to a bare
// LatentReplayBuffer under the same config — the single shard keeps the
// unmixed seed, the full byte budget, and every add routes to it, so the
// shard's state (materialize()) matches the buffer's; tests pin this across
// all five eviction policies.  Under shards>1 each shard's eviction stream
// is still deterministic per (seed, shard, arrival order) — a fixed
// interleaving reproduces bit-for-bit — but different interleavings commit
// different global states, exactly like any sharded service.
//
// The engine is the one place replay entries are drawn: stream() and
// sample_into() make the same uniform draw from the caller's Rng, and the run
// engines read every epoch's A_LR through stream().
//
// The global logical index space is the concatenation of the shards' logical
// orders (shard 0's entries first).  Per-entry reads lock only the owning
// shard; aggregate reads lock shards one at a time (a consistent snapshot is
// not promised while writers run).  report_outcome() drops an out-of-range
// index instead of throwing: under concurrent fleet traffic a drawn entry may
// be displaced before its outcome lands, and losing one EMA observation is
// the correct degradation.  Single-threaded runs never hit that branch, so
// the shards=1 contract is unaffected.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/latent_buffer.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace r4ncl::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace r4ncl::obs

namespace r4ncl::core {

class ReplayStream;

/// How adds are routed to shards.
enum class ShardKey : std::uint8_t {
  kClass,  // uint32(label) % shards
  kHash,   // FNV-1a over raster payload + label, % shards
};

/// Canonical lowercase name ("class", "hash").
[[nodiscard]] std::string_view to_string(ShardKey key) noexcept;

/// Inverse of to_string(); throws Error naming the valid set — the CLI
/// surfaces validate shard_by= eagerly through this.
[[nodiscard]] ShardKey parse_shard_key(std::string_view name);

/// Shard-count + routing-key knobs of a ShardedReplayEngine.  shards=1 with
/// any key is the degenerate single-buffer case.
struct ShardedEngineConfig {
  std::size_t shards = 1;
  ShardKey shard_by = ShardKey::kClass;
};

/// FNV-1a content hash of a raster + label — the shard_by=hash routing key.
/// Exposed so tests and benches can predict routing.
[[nodiscard]] std::uint64_t raster_route_hash(const data::SpikeRaster& raster,
                                              std::int32_t label) noexcept;

class ShardedReplayEngine {
 public:
  /// `budget.capacity_bytes` is the *total* byte budget: shard i receives
  /// total/shards plus one spare byte for i < total%shards (0 stays
  /// unbounded for every shard).  Shard i's eviction rng is seeded
  /// budget.seed ^ (i * kShardSeedMix), so shard 0 — and therefore the
  /// shards=1 engine — keeps the buffer's exact stream.
  ShardedReplayEngine(const compress::CodecConfig& codec,
                      std::size_t activation_timesteps,
                      const ReplayBufferConfig& budget = {},
                      const ShardedEngineConfig& sharding = {});

  /// Per-shard seed mix (shard i xors in i * this); any odd 64-bit constant
  /// decorrelates the SplitMix64 streams, this one is the golden-gamma
  /// increment's companion constant.
  static constexpr std::uint64_t kShardSeedMix = 0xD1B54A32D192ED03ULL;

  /// Routes to the shard key's shard, locks it, and delegates to
  /// LatentReplayBuffer::add().  Returns false when that shard's policy
  /// dropped the incoming entry (reservoir rejection / importance rejection).
  bool add(const data::SpikeRaster& raster, std::int32_t label);

  /// Shard index an (raster, label) pair routes to.
  [[nodiscard]] std::size_t shard_of(const data::SpikeRaster& raster,
                                     std::int32_t label) const noexcept;

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }
  [[nodiscard]] const ShardedEngineConfig& sharding() const noexcept { return sharding_; }
  /// Direct read access to shard `i`'s buffer — test/bench introspection
  /// only; the caller must not use it while other threads write the engine.
  /// Deliberately unanalyzed: it hands out a reference to lock-guarded state
  /// for quiescent-engine inspection, which thread-safety analysis cannot
  /// express (the alternative — copying the buffer out — would change what
  /// the tests observe).
  [[nodiscard]] const LatentReplayBuffer& shard(std::size_t i) const
      R4NCL_NO_THREAD_SAFETY_ANALYSIS;

  // --- per-entry reads (global concatenated index space) ---
  /// Live entries, addressable as global indices [0, size()).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Timestep length of the rasters decompress_into() produces.
  [[nodiscard]] std::size_t activation_timesteps() const noexcept {
    return activation_timesteps_;
  }
  /// Channel width of the stored activations (0 while empty).
  [[nodiscard]] std::size_t channels() const noexcept;
  /// Label of the entry at global `index` (no decode).
  [[nodiscard]] std::int32_t label_at(std::size_t index) const;
  /// Decompresses the entry at global `index` into `out`, reusing its
  /// allocations (and `levels_scratch` for quantized payload codes) — the
  /// ReplayStream decode path.
  void decompress_into(std::size_t index, data::Sample& out,
                       snn::SpikeOpStats* stats = nullptr,
                       std::vector<std::uint8_t>* levels_scratch = nullptr) const;

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Total configured byte budget (the pre-split value).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept { return capacity_bytes_; }
  /// Moves the total byte budget: re-splits across shards (same remainder
  /// rule as construction) and applies each share in shard order, so every
  /// shard re-evicts per its policy and private rng exactly as a bare
  /// buffer would — shards=1 reproduces BudgetSchedule runs bit-identically.
  void set_capacity(std::size_t new_capacity_bytes);

  /// Aggregates over all shards (locked one shard at a time).  Per-instance
  /// compatibility shims: the registry publishes the same quantities fleet-
  /// wide as `replay_engine.shard<i>.occupancy_bytes` / `.evictions` gauges
  /// and the `replay_engine(.shard<i>).adds` counters — new telemetry
  /// consumers should read obs::MetricsRegistry::snapshot() instead.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;
  [[nodiscard]] std::size_t stream_seen() const noexcept;
  [[nodiscard]] std::size_t evictions() const noexcept;
  /// Merged per-class occupancy, sorted by label ascending.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::size_t>> class_occupancy() const;

  /// Effective importance of the entry at global `index` (see
  /// LatentReplayBuffer::importance_at).
  [[nodiscard]] float importance_at(std::size_t index) const;

  /// Trainer feedback for the entry at global `index` — routed to the owning
  /// shard under its lock.  Out-of-range indices are dropped (see file
  /// comment); in-range routing matches the buffer's EMA exactly.
  void report_outcome(std::size_t index, float score);

  /// Streaming minibatch cursor over a uniform draw of min(k, size())
  /// distinct global indices (see ReplayStream): a partial Fisher–Yates that
  /// consumes exactly k rng draws, or, for k >= size(), the whole store in
  /// storage order with no rng consumed.  Decompression is charged to
  /// `stats` per decoded entry.  The engine must outlive the stream and must
  /// not be mutated while it is open.
  [[nodiscard]] ReplayStream stream(std::size_t k, Rng& rng, std::size_t minibatch = 16,
                                    snn::SpikeOpStats* stats = nullptr) const;
  /// stream()'s draw decoded up front: appends the drawn entries to `out`
  /// and returns their global indices.  Entries displaced between the draw
  /// and their decode (concurrent writers) are skipped.
  std::vector<std::size_t> sample_into(std::size_t k, Rng& rng, data::Dataset& out,
                                       snn::SpikeOpStats* stats = nullptr) const;
  /// Every shard's LatentReplayBuffer::materialize() in shard order — the
  /// engine's state dump (shards=1 equals the bare buffer's).
  [[nodiscard]] data::Dataset materialize(snn::SpikeOpStats* stats = nullptr) const;

  /// Serializes the engine: shard count, routing key, total capacity, then
  /// every shard's buffer snapshot in shard order (each under its lock).
  void save(BinaryWriter& out) const;
  /// Restores a snapshot into this engine.  Shard count and routing key must
  /// match the constructed configuration (pinned mismatch errors) — the
  /// checkpoint does not re-shape a live engine.
  void load(BinaryReader& in);

 private:
  struct Shard {
    /// Guards every access to `buffer`; mutable so const reads can lock.
    /// Leaf lock: nothing is acquired while a shard lock is held, and
    /// aggregate walks lock shards strictly one at a time, so no two shard
    /// locks are ever held together and no acquisition order can form.
    mutable Mutex mu;
    LatentReplayBuffer buffer R4NCL_GUARDED_BY(mu);

    Shard(const compress::CodecConfig& codec, std::size_t activation_timesteps,
          const ReplayBufferConfig& budget)
        : buffer(codec, activation_timesteps, budget) {}
  };

  /// Byte budget of shard `i` under total capacity `total` (0 = unbounded).
  [[nodiscard]] std::size_t shard_capacity(std::size_t total, std::size_t i) const noexcept;

  /// Registry handles (obs::metrics()), resolved once at construction.
  /// Counters are deterministic event tallies; the occupancy/eviction gauges
  /// are last-write-wins per shard *name*, so concurrent engines sharing the
  /// process overwrite each other — the fleet view is per-deployment, and a
  /// deployment runs one engine.
  struct ShardTelemetry {
    obs::Counter* adds = nullptr;
    obs::Gauge* evictions = nullptr;
    obs::Gauge* occupancy_bytes = nullptr;
    obs::Gauge* capacity_bytes = nullptr;
  };
  /// Publishes shard `i`'s occupancy/eviction gauges; call under sh.mu.
  void publish_shard_gauges(std::size_t i, const LatentReplayBuffer& buffer) const;

  /// Resolves global `index` to (shard, local index), locking shards one at
  /// a time, and invokes `fn(buffer, local)` under the owning shard's lock.
  /// Returns false when `index` is beyond the live population.
  bool with_entry(std::size_t index,
                  const std::function<void(LatentReplayBuffer&, std::size_t)>& fn) const;

  std::size_t activation_timesteps_;
  ShardedEngineConfig sharding_;
  std::size_t capacity_bytes_;
  /// unique_ptr because Shard owns a mutex (immovable) and the vector is
  /// sized at construction.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardTelemetry> shard_obs_;
  obs::Counter* obs_adds_ = nullptr;
  obs::Gauge* obs_capacity_ = nullptr;
  obs::Histogram* obs_lock_wait_ = nullptr;
};

}  // namespace r4ncl::core
