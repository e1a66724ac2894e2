// Latent replay buffer: the on-device store of old-knowledge activations.
//
// Holds bit-packed (optionally codec-compressed, optionally sub-byte
// quantized — CodecConfig::latent_bits) spike rasters captured at the LR
// insertion layer, plus labels.  memory_bytes() is the quantity
// reported in Fig. 12: payload bytes plus a fixed per-sample header
// (geometry + label; codec-compressed entries additionally carry codec
// metadata, which is why SpikingLR's per-sample overhead is slightly larger
// — reproducing the paper's 20–21.88% savings band).
//
// The buffer operates under an explicit *byte budget* (ReplayBufferConfig):
// embedded deployments give latent replay a fixed memory region, so a stream
// of arriving classes must trigger eviction rather than growth.  Five
// selection policies are provided (cf. Pellegrini et al., "Latent Replay for
// Real-Time Continual Learning"; Ravaglia et al., TinyML quantized latent
// replays):
//   kFifo          — evict the oldest stored entries first
//   kReservoir     — Vitter's Algorithm R: every entry of the stream is
//                    retained with equal probability capacity/N
//   kClassBalanced — evict the oldest entry of the most-represented class,
//                    driving per-class occupancy toward equality
//   kLowImportance — content-aware: evict the least-important entry.
//                    Importance is the spike density recorded at insert time
//                    until the trainer feeds back a running loss/error score
//                    via report_outcome(), which then supersedes the static
//                    proxy.  An incoming entry strictly sparser than a
//                    victim still on its density proxy is rejected instead
//                    (density-vs-density only — trainer-scored victims never
//                    block admission, so saturated error scores cannot
//                    starve new-task latents out of the buffer).
//   kImportanceClassBalanced — balance first, then score: evict the
//                    least-important entry of the most-represented class.
// capacity_bytes == 0 keeps the historical unbounded behaviour.
//
// The byte budget itself may move at task boundaries (BudgetSchedule): real
// devices share the replay region with other subsystems, so the run engines
// re-apply the scheduled capacity before each task and the buffer re-evicts
// deterministically (per its policy and private rng) down to the new cap.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compress/spike_codec.hpp"
#include "data/spike_data.hpp"
#include "snn/layer.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace r4ncl::obs {
class Counter;
}  // namespace r4ncl::obs

namespace r4ncl::core {

/// Which stored entry gives way when an add() would exceed the byte budget.
enum class ReplayPolicy : std::uint8_t {
  kFifo,           // oldest entry evicted first
  kReservoir,      // stream-uniform retention (Algorithm R)
  kClassBalanced,  // evict oldest entry of the most-represented class
  kLowImportance,  // evict (or reject) the least-important entry
  kImportanceClassBalanced,  // least-important entry of the heaviest class
};

/// Canonical lowercase name ("fifo", "reservoir", "class_balanced",
/// "low_importance", "importance_class_balanced").
[[nodiscard]] std::string_view to_string(ReplayPolicy policy) noexcept;

/// Inverse of to_string(); also accepts "balanced" and "importance_balanced".
/// Throws Error on unknown names (the CLI surfaces route user input through
/// this, so the message pins the full valid set).
[[nodiscard]] ReplayPolicy parse_replay_policy(std::string_view name);

/// Whether a policy consults per-entry importance scores (and therefore
/// benefits from the trainer's report_outcome() feedback).
[[nodiscard]] constexpr bool is_importance_policy(ReplayPolicy policy) noexcept {
  return policy == ReplayPolicy::kLowImportance ||
         policy == ReplayPolicy::kImportanceClassBalanced;
}

/// How the byte budget evolves over a task stream.  `const` keeps
/// ReplayBufferConfig::capacity_bytes for the whole run (the historical
/// behaviour); the other kinds model a replay region another subsystem
/// claims progressively (linear) or abruptly (step).
enum class BudgetScheduleKind : std::uint8_t {
  kConst,   // capacity_bytes for every task
  kLinear,  // interpolate start → end bytes across the task stream
  kStep,    // capacity_bytes until step_task, step_bytes from then on
};

/// Per-task byte-budget schedule, applied by the run engines at task
/// boundaries via LatentReplayBuffer::set_capacity().
struct BudgetSchedule {
  BudgetScheduleKind kind = BudgetScheduleKind::kConst;
  /// kLinear endpoints (bytes at the first / last task of the stream).
  std::size_t linear_start = 0;
  std::size_t linear_end = 0;
  /// kStep: from task index `step_task` on, the capacity becomes step_bytes.
  std::size_t step_task = 0;
  std::size_t step_bytes = 0;

  /// kConst schedules never override the run's base capacity.
  [[nodiscard]] bool active() const noexcept { return kind != BudgetScheduleKind::kConst; }

  /// Capacity for task `task` of a `num_tasks`-task stream whose base
  /// (unscheduled) capacity is `base_capacity`.  kLinear interpolates
  /// linearly and rounds to the nearest byte; a single-task stream uses
  /// linear_start.  0 means unbounded, exactly as in ReplayBufferConfig.
  [[nodiscard]] std::size_t capacity_for_task(std::size_t task, std::size_t num_tasks,
                                              std::size_t base_capacity) const noexcept;

  /// Canonical spec string ("const", "linear:<start>:<end>",
  /// "step:<task>:<bytes>") — the inverse of parse_budget_schedule().
  [[nodiscard]] std::string spec() const;
};

/// Parses a schedule spec: "const" | "linear:<start>:<end>" |
/// "step:<task>:<bytes>" (byte/task fields are non-negative integers).
/// Throws Error naming the valid forms on anything else — the CLI surfaces
/// validate eagerly through this, so a typo fails before any training runs.
[[nodiscard]] BudgetSchedule parse_budget_schedule(std::string_view spec);

/// Byte budget + eviction policy of a replay buffer.
struct ReplayBufferConfig {
  /// Hard ceiling on memory_bytes(); 0 = unbounded (historical behaviour).
  std::size_t capacity_bytes = 0;
  ReplayPolicy policy = ReplayPolicy::kFifo;
  /// Seed of the buffer's private eviction stream (reservoir draws).  Run
  /// engines mix their run seed into this so whole runs reproduce.
  std::uint64_t seed = 0x5eedb0ffe7ULL;

  /// Copy with the run seed mixed into the eviction stream — the one
  /// derivation both run engines use, so reservoir displacement reproduces
  /// per run without correlating across seeds.
  [[nodiscard]] ReplayBufferConfig with_run_seed(std::uint64_t run_seed) const noexcept {
    ReplayBufferConfig mixed = *this;
    mixed.seed ^= (run_seed + 1) * 0x9E3779B97F4A7C15ULL;
    return mixed;
  }
};

/// Salt deriving the per-run replay-draw Rng (ShardedReplayEngine::stream())
/// from the run seed.  Shared by both run engines; a whole-store draw never
/// consumes from that stream, so legacy runs stay bit-identical.
inline constexpr std::uint64_t kReplayDrawSeedSalt = 0xA11CE5EEDBEEFULL;

/// Smoothing factor of the report_outcome() running score: each report moves
/// the stored score a quarter of the way toward the new observation, so one
/// bad epoch cannot un-pin an entry the trainer consistently gets wrong.
inline constexpr float kOutcomeEma = 0.25f;

class LatentReplayBuffer {
 public:
  /// `activation_timesteps` is the timestep length of the rasters handed to
  /// add() (and returned by materialize()); the codec may store fewer.
  LatentReplayBuffer(const compress::CodecConfig& codec, std::size_t activation_timesteps,
                     const ReplayBufferConfig& budget = {});

  /// Compresses and stores one latent activation raster, evicting per the
  /// configured policy when the byte budget would be exceeded.  All rasters
  /// in a buffer must share the channel width (the insertion-layer width);
  /// the first add() fixes it.  Returns false when the policy chose to drop
  /// the *incoming* entry instead (reservoir rejection); memory_bytes() <=
  /// capacity_bytes holds on return either way.
  bool add(const data::SpikeRaster& raster, std::int32_t label);

  /// Channel width of the stored activations (0 while empty).
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const ReplayBufferConfig& budget() const noexcept { return budget_; }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept { return budget_.capacity_bytes; }

  /// Moves the byte budget (a BudgetSchedule boundary).  Growing (or 0 =
  /// unbounded) never touches stored entries; shrinking re-evicts per the
  /// configured policy — FIFO from the head, reservoir a uniform victim from
  /// the buffer's private rng, the class/importance policies their usual
  /// victim — until memory_bytes() fits, so the same seed and stream yield a
  /// byte-identical buffer on every run.
  void set_capacity(std::size_t new_capacity_bytes);

  /// Entries offered to add() over the buffer's lifetime (an add() that
  /// throws is not counted) — Algorithm R's stream length, saved with the
  /// buffer.  The registry's `replay_buffer.adds` counter sums the same
  /// events over every buffer in the process.
  [[nodiscard]] std::size_t stream_seen() const noexcept { return stream_seen_; }
  /// Entries displaced by the budget (stored entries evicted + incoming
  /// entries the policy rejected), so size() == stream_seen() - evictions()
  /// for a buffer filled only through add().  The registry sums the same
  /// events as `replay_buffer.evictions` (and per policy as
  /// `replay_buffer.evictions.<policy>`).
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }

  /// Occupancy per class, sorted by label ascending; counts sum to size().
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::size_t>> class_occupancy() const;

  /// Total storage footprint in bytes (payload + per-sample headers).
  /// Maintained incrementally, so the budget check in add() is O(1).
  /// Fleet-wide occupancy is published by ShardedReplayEngine as the
  /// `replay_engine.shard<i>.occupancy_bytes` gauges in the obs registry.
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return memory_bytes_; }

  /// Decompresses every entry in logical order: the state dump that
  /// ShardedReplayEngine::materialize() composes.  The run engines read A_LR
  /// through a ReplayStream instead.  When `stats` is non-null the codec
  /// work is charged as decompress_bits (zero when the codec ratio is 1,
  /// i.e. raw storage).
  [[nodiscard]] data::Dataset materialize(snn::SpikeOpStats* stats = nullptr) const;

  /// Label of the entry at logical index `index` (no decode).
  [[nodiscard]] std::int32_t label_at(std::size_t index) const;

  /// Spike density of the entry at logical `index`, recorded at add() time
  /// (spikes / (timesteps × channels) of the *source* raster) — the static
  /// importance proxy, free because add() already walks the raster.
  [[nodiscard]] float density_at(std::size_t index) const;

  /// Effective importance of the entry at logical `index`: the running
  /// report_outcome() score once the trainer has reported one, the insert
  /// density before that.  Higher = more informative = evicted later.
  [[nodiscard]] float importance_at(std::size_t index) const;

  /// Trainer feedback hook: folds a loss/error observation for the entry at
  /// logical `index` into its running importance score (EMA, kOutcomeEma).
  /// Run engines call this after each replay draw with the per-sample top-1
  /// error, so entries the network keeps getting wrong are retained longest.
  /// Touches only score bookkeeping — safe while a ReplayStream is open, and
  /// a no-op for the content-blind policies' determinism (scores are always
  /// maintained but only the importance policies read them).
  void report_outcome(std::size_t index, float score);

  /// Decompresses the entry at logical `index` into `out`, reusing its
  /// allocations (and `levels_scratch`, when given, for quantized payload
  /// codes) — the ReplayStream decode path.  Charges decompress_bits exactly
  /// as materialize() does.
  void decompress_into(std::size_t index, data::Sample& out,
                       snn::SpikeOpStats* stats = nullptr,
                       std::vector<std::uint8_t>* levels_scratch = nullptr) const;

  /// Serializes the complete buffer state: capacity, eviction-rng snapshot,
  /// stream/eviction counters, and every live entry in logical order with its
  /// quantized payload byte-copied as-is (no decode).  Together with the
  /// restored rng this makes a loaded buffer behave bit-identically to the
  /// saved one for every subsequent add/evict/draw.
  void save(BinaryWriter& out) const;

  /// Replaces this buffer's contents with a saved snapshot.  The buffer must
  /// be constructed with the run's codec/timesteps/policy (the checkpoint
  /// verifies policy and timesteps with pinned mismatch errors); the decoded
  /// entries move in as saved, in logical order, and the class counts are
  /// rebuilt from them.  Every geometry and byte-accounting field is
  /// validated before use, so a corrupt snapshot throws r4ncl::Error instead
  /// of mis-indexing.
  void load(BinaryReader& in);

  /// Per-sample header bytes: raster geometry (2×u32) + label (i32) +
  /// buffer-entry bookkeeping (u32) = 16; codec entries (time-grouped and/or
  /// quantized) add ratio/strategy/bit-depth/original-length metadata
  /// (8 more).
  [[nodiscard]] std::size_t header_bytes() const noexcept {
    return (codec_.ratio > 1 || codec_.quantized()) ? 24 : 16;
  }

 private:
  struct Entry {
    compress::PackedRaster packed;
    std::int32_t label = 0;
    /// Spike density of the source raster at add() time (importance proxy).
    float density = 0.0f;
    /// Running trainer-fed loss/error score; valid once outcome_valid.
    float outcome = 0.0f;
    bool outcome_valid = false;

    [[nodiscard]] float importance() const noexcept {
      return outcome_valid ? outcome : density;
    }
  };

  [[nodiscard]] std::size_t entry_bytes(const Entry& e) const noexcept;
  /// Charges the codec's decompression work for one entry (no-op for raw
  /// storage or when stats is null).
  void charge_decompress(const Entry& e, snn::SpikeOpStats* stats) const;
  /// Removes the entry at logical `index`, maintaining the byte and class
  /// accounting.
  void evict_at(std::size_t index);
  /// Label of the most-represented class; when `incoming` is non-null that
  /// label counts toward its class (ties go to the smallest label).
  [[nodiscard]] std::int32_t heaviest_class(const std::int32_t* incoming) const;
  /// Index of the least-important stored entry, or of the least-important
  /// entry of class `only` when given (ties go to the oldest) — the
  /// kLowImportance and kImportanceClassBalanced victims.
  [[nodiscard]] std::size_t least_important_victim(
      std::optional<std::int32_t> only = std::nullopt) const;
  /// Evicts per the configured policy until `bytes` more would fit under
  /// `capacity` (the shared add()/set_capacity() shrink loop; incoming is
  /// null during a shrink).  Reservoir shrinks displace a uniform stored
  /// victim from the buffer's private rng — Algorithm R's incoming-rejection
  /// branch happens in add() before this runs.
  void evict_until_fits(std::size_t capacity, std::size_t bytes,
                        const std::int32_t* incoming);
  /// Bumps evictions_ and the registry's total + per-policy eviction
  /// counters — the one place a displacement (stored or incoming) is counted.
  void note_eviction() noexcept;

  compress::CodecConfig codec_;
  std::size_t activation_timesteps_;
  ReplayBufferConfig budget_;
  Rng rng_;
  std::size_t channels_ = 0;
  std::size_t memory_bytes_ = 0;
  std::size_t stream_seen_ = 0;
  std::size_t evictions_ = 0;
  /// Live entries in logical order: insertion order with evicted entries
  /// erased, entries_.front() the oldest.  An erase shifts at most a few
  /// hundred entries of a few words each (payloads stay on the heap), while
  /// the add() that triggers it compresses a whole raster.
  std::vector<Entry> entries_;
  /// Per-class counts (label → stored entries), kept sorted by label.
  std::vector<std::pair<std::int32_t, std::size_t>> class_counts_;
  /// Registry handles (obs::metrics()), resolved once at construction.
  /// Observation-only: a disarmed registry turns every add() into a relaxed
  /// load, so instrumented and bare buffers behave bit-identically.
  obs::Counter* obs_adds_;
  obs::Counter* obs_evictions_;
  obs::Counter* obs_policy_evictions_;
  obs::Counter* obs_decompress_bits_;
  obs::Counter* obs_restored_;
};

}  // namespace r4ncl::core
