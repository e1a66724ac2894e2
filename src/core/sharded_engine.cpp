#include "core/sharded_engine.hpp"

#include <iterator>
#include <map>
#include <optional>

#include "core/replay_stream.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace r4ncl::core {

namespace {

/// Uniform draw of min(k, population) distinct indices from [0, population).
/// k >= population returns the identity order and consumes no rng draws, so
/// a whole-store draw reads the store in storage order; otherwise a partial
/// Fisher–Yates consumes exactly k draws.
std::vector<std::size_t> draw_replay_indices(std::size_t population, std::size_t k, Rng& rng) {
  std::vector<std::size_t> indices(population);
  for (std::size_t i = 0; i < population; ++i) indices[i] = i;
  if (k >= population) return indices;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_index(population - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace

std::string_view to_string(ShardKey key) noexcept {
  switch (key) {
    case ShardKey::kClass: return "class";
    case ShardKey::kHash: return "hash";
  }
  return "unknown";
}

ShardKey parse_shard_key(std::string_view name) {
  if (name == "class") return ShardKey::kClass;
  if (name == "hash") return ShardKey::kHash;
  throw Error("unknown shard_by '" + std::string(name) + "' (expected class|hash)");
}

std::uint64_t raster_route_hash(const data::SpikeRaster& raster,
                                std::int32_t label) noexcept {
  // FNV-1a 64-bit over the 0/1 payload, then the label bytes: cheap, stable
  // across platforms, and spreads label-skewed streams by content rather
  // than by class.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t bit : raster.bits) {
    h = (h ^ bit) * 0x100000001b3ULL;
  }
  const auto u = static_cast<std::uint32_t>(label);
  for (int shift = 0; shift < 32; shift += 8) {
    h = (h ^ ((u >> shift) & 0xffu)) * 0x100000001b3ULL;
  }
  return h;
}

ShardedReplayEngine::ShardedReplayEngine(const compress::CodecConfig& codec,
                                         std::size_t activation_timesteps,
                                         const ReplayBufferConfig& budget,
                                         const ShardedEngineConfig& sharding)
    : activation_timesteps_(activation_timesteps), sharding_(sharding),
      capacity_bytes_(budget.capacity_bytes) {
  R4NCL_CHECK(sharding.shards >= 1, "shards must be >= 1, got " << sharding.shards);
  check_splittable(budget.capacity_bytes);
  shards_.reserve(sharding.shards);
  for (std::size_t i = 0; i < sharding.shards; ++i) {
    ReplayBufferConfig shard_budget = budget;
    shard_budget.capacity_bytes = shard_capacity(budget.capacity_bytes, i);
    // i=0 xors in 0, so the first shard — and therefore the whole shards=1
    // engine — keeps the buffer's exact eviction stream.
    shard_budget.seed = budget.seed ^ (static_cast<std::uint64_t>(i) * kShardSeedMix);
    shards_.push_back(std::make_unique<Shard>(codec, activation_timesteps, shard_budget));
  }
  // Telemetry handles are resolved eagerly so the armed hot path never takes
  // the registry lock; while disarmed every publish below is a no-op.
  obs::MetricsRegistry& reg = obs::metrics();
  obs_adds_ = &reg.counter("replay_engine.adds");
  obs_capacity_ = &reg.gauge("replay_engine.capacity_bytes");
  obs_lock_wait_ =
      &reg.histogram("replay_engine.lock_wait_seconds", obs::kLatencyEdgesSeconds);
  shard_obs_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "replay_engine.shard" + std::to_string(i) + ".";
    shard_obs_.push_back({&reg.counter(prefix + "adds"), &reg.gauge(prefix + "evictions"),
                          &reg.gauge(prefix + "occupancy_bytes"),
                          &reg.gauge(prefix + "capacity_bytes")});
    shard_obs_[i].capacity_bytes->set(
        static_cast<double>(shard_capacity(budget.capacity_bytes, i)));
  }
  obs_capacity_->set(static_cast<double>(capacity_bytes_));
}

void ShardedReplayEngine::publish_shard_gauges(std::size_t i,
                                               const LatentReplayBuffer& buffer) const {
  const ShardTelemetry& t = shard_obs_[i];
  t.occupancy_bytes->set(static_cast<double>(buffer.memory_bytes()));
  t.evictions->set(static_cast<double>(buffer.evictions()));
}

void ShardedReplayEngine::check_splittable(std::size_t total) const {
  // A share of 0 would mean "unbounded" to its shard, so a bounded total
  // must give every shard at least one byte.
  R4NCL_CHECK(total == 0 || total >= sharding_.shards,
              "byte budget " << total << " is below the shard count " << sharding_.shards
                             << ": every shard needs at least 1 byte (0 = unbounded)");
}

std::size_t ShardedReplayEngine::shard_capacity(std::size_t total,
                                                std::size_t i) const noexcept {
  if (total == 0) return 0;  // unbounded stays unbounded for every shard
  const std::size_t shards = sharding_.shards;
  return total / shards + (i < total % shards ? 1 : 0);
}

std::size_t ShardedReplayEngine::shard_of(const data::SpikeRaster& raster,
                                          std::int32_t label) const noexcept {
  if (shards_.size() == 1) return 0;
  switch (sharding_.shard_by) {
    case ShardKey::kClass:
      return static_cast<std::uint32_t>(label) % shards_.size();
    case ShardKey::kHash:
      return static_cast<std::size_t>(raster_route_hash(raster, label) % shards_.size());
  }
  return 0;
}

bool ShardedReplayEngine::add(const data::SpikeRaster& raster, std::int32_t label) {
  const std::size_t idx = shard_of(raster, label);
  Shard& sh = *shards_[idx];
  // The telemetry writes below use no rng and change no control flow, and a
  // disarmed registry makes each a relaxed load, so armed ≡ disarmed
  // (tests/test_obs.cpp).  The wait clock spans the lock acquisition — the
  // per-shard contention the fleet view wants — and is read only while
  // tracing is armed.
  std::optional<Stopwatch> wait;
  if (obs::metrics().trace_armed()) wait.emplace();
  MutexLock lock(sh.mu);
  if (wait) obs_lock_wait_->record(wait->elapsed_seconds());
  const bool stored = sh.buffer.add(raster, label);
  obs_adds_->add(1);
  shard_obs_[idx].adds->add(1);
  publish_shard_gauges(idx, sh.buffer);
  return stored;
}

const LatentReplayBuffer& ShardedReplayEngine::shard(std::size_t i) const {
  R4NCL_CHECK(i < shards_.size(), "shard " << i << " out of " << shards_.size());
  return shards_[i]->buffer;
}

std::size_t ShardedReplayEngine::size() const noexcept {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    total += sh->buffer.size();
  }
  return total;
}

std::size_t ShardedReplayEngine::channels() const noexcept {
  // All shards store rasters of the run's one insertion-layer width; report
  // the first shard that has fixed it (0 while the whole engine is empty).
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    const std::size_t c = sh->buffer.channels();
    if (c != 0) return c;
  }
  return 0;
}

bool ShardedReplayEngine::with_entry(
    std::size_t index,
    const std::function<void(LatentReplayBuffer&, std::size_t)>& fn) const {
  // The global logical index space concatenates the shards' logical orders;
  // walk shards in order, locking one at a time, until the owner is found.
  std::size_t skipped = 0;
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    const std::size_t n = sh->buffer.size();
    if (index - skipped < n) {
      fn(sh->buffer, index - skipped);
      return true;
    }
    skipped += n;
  }
  return false;
}

std::int32_t ShardedReplayEngine::label_at(std::size_t index) const {
  std::int32_t label = 0;
  const bool found = with_entry(index, [&](LatentReplayBuffer& b, std::size_t local) {
    label = b.label_at(local);
  });
  R4NCL_CHECK(found, "entry " << index << " out of " << size());
  return label;
}

void ShardedReplayEngine::decompress_into(std::size_t index, data::Sample& out,
                                          snn::SpikeOpStats* stats,
                                          std::vector<std::uint8_t>* levels_scratch) const {
  const bool found = with_entry(index, [&](LatentReplayBuffer& b, std::size_t local) {
    b.decompress_into(local, out, stats, levels_scratch);
  });
  R4NCL_CHECK(found, "entry " << index << " out of " << size());
}

float ShardedReplayEngine::importance_at(std::size_t index) const {
  float score = 0.0f;
  const bool found = with_entry(index, [&](LatentReplayBuffer& b, std::size_t local) {
    score = b.importance_at(local);
  });
  R4NCL_CHECK(found, "entry " << index << " out of " << size());
  return score;
}

void ShardedReplayEngine::report_outcome(std::size_t index, float score) {
  // Out-of-range indices are dropped, not thrown (see the header: under
  // concurrent traffic a stale index may point past the live population).
  (void)with_entry(index, [score](LatentReplayBuffer& b, std::size_t local) {
    b.report_outcome(local, score);
  });
}

void ShardedReplayEngine::set_capacity(std::size_t new_capacity_bytes) {
  check_splittable(new_capacity_bytes);
  capacity_bytes_ = new_capacity_bytes;
  obs_capacity_->set(static_cast<double>(new_capacity_bytes));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    MutexLock lock(sh.mu);
    sh.buffer.set_capacity(shard_capacity(new_capacity_bytes, i));
    shard_obs_[i].capacity_bytes->set(
        static_cast<double>(shard_capacity(new_capacity_bytes, i)));
    publish_shard_gauges(i, sh.buffer);
  }
}

std::size_t ShardedReplayEngine::memory_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    total += sh->buffer.memory_bytes();
  }
  return total;
}

std::size_t ShardedReplayEngine::stream_seen() const noexcept {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    total += sh->buffer.stream_seen();
  }
  return total;
}

std::size_t ShardedReplayEngine::evictions() const noexcept {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    total += sh->buffer.evictions();
  }
  return total;
}

std::vector<std::pair<std::int32_t, std::size_t>> ShardedReplayEngine::class_occupancy()
    const {
  std::map<std::int32_t, std::size_t> merged;
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    for (const auto& [label, count] : sh->buffer.class_occupancy()) {
      merged[label] += count;
    }
  }
  return {merged.begin(), merged.end()};
}

std::vector<std::size_t> ShardedReplayEngine::sample_into(std::size_t k, Rng& rng,
                                                          data::Dataset& out,
                                                          snn::SpikeOpStats* stats) const {
  std::vector<std::size_t> drawn = draw_replay_indices(size(), k, rng);
  out.reserve(out.size() + drawn.size());
  for (const std::size_t index : drawn) {
    data::Sample s;
    const bool found = with_entry(index, [&](LatentReplayBuffer& b, std::size_t local) {
      b.decompress_into(local, s, stats);
    });
    // Entries displaced between draw and decode (concurrent writers) are
    // skipped; a single-threaded engine decodes every drawn entry.
    if (found) out.push_back(std::move(s));
  }
  return drawn;
}

data::Dataset ShardedReplayEngine::materialize(snn::SpikeOpStats* stats) const {
  data::Dataset out;
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    data::Dataset part = sh->buffer.materialize(stats);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

ReplayStream ShardedReplayEngine::stream(std::size_t k, Rng& rng, std::size_t minibatch,
                                         snn::SpikeOpStats* stats) const {
  return ReplayStream(*this, draw_replay_indices(size(), k, rng), minibatch, stats);
}

namespace {
constexpr std::uint32_t kEngineTag = make_tag("SRLE");
}  // namespace

void ShardedReplayEngine::save(BinaryWriter& out) const {
  out.write_tag(kEngineTag);
  out.write_u64(shards_.size());
  out.write_u32(static_cast<std::uint32_t>(sharding_.shard_by));
  out.write_u64(capacity_bytes_);
  for (const auto& sh : shards_) {
    MutexLock lock(sh->mu);
    sh->buffer.save(out);
  }
}

void ShardedReplayEngine::load(BinaryReader& in) {
  in.expect_tag(kEngineTag);
  const std::uint64_t shards = in.read_u64();
  R4NCL_CHECK(shards == shards_.size(),
              "shard-count mismatch: checkpoint has " << shards << " shard(s), this engine "
                                                      << shards_.size());
  const std::uint32_t shard_by = in.read_u32();
  R4NCL_CHECK(shard_by == static_cast<std::uint32_t>(sharding_.shard_by),
              "shard-key mismatch: checkpoint routes by key " << shard_by
                                                              << ", this engine by "
                                                              << to_string(sharding_.shard_by));
  const std::uint64_t capacity = in.read_u64();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    MutexLock lock(sh.mu);
    sh.buffer.load(in);
    // Re-publish the restored occupancy/budget so a warm resume's first
    // snapshot reflects the loaded state, not the empty pre-load engine.
    shard_obs_[i].capacity_bytes->set(static_cast<double>(sh.buffer.capacity_bytes()));
    publish_shard_gauges(i, sh.buffer);
  }
  capacity_bytes_ = static_cast<std::size_t>(capacity);
  obs_capacity_->set(static_cast<double>(capacity_bytes_));
}

}  // namespace r4ncl::core
