#include "core/latent_buffer.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace r4ncl::core {

std::string_view to_string(ReplayPolicy policy) noexcept {
  switch (policy) {
    case ReplayPolicy::kFifo: return "fifo";
    case ReplayPolicy::kReservoir: return "reservoir";
    case ReplayPolicy::kClassBalanced: return "class_balanced";
    case ReplayPolicy::kLowImportance: return "low_importance";
    case ReplayPolicy::kImportanceClassBalanced: return "importance_class_balanced";
  }
  return "unknown";
}

ReplayPolicy parse_replay_policy(std::string_view name) {
  if (name == "fifo") return ReplayPolicy::kFifo;
  if (name == "reservoir") return ReplayPolicy::kReservoir;
  if (name == "class_balanced" || name == "balanced") return ReplayPolicy::kClassBalanced;
  if (name == "low_importance") return ReplayPolicy::kLowImportance;
  if (name == "importance_class_balanced" || name == "importance_balanced") {
    return ReplayPolicy::kImportanceClassBalanced;
  }
  throw Error("unknown replay policy '" + std::string(name) +
              "' (expected fifo|reservoir|class_balanced|low_importance|"
              "importance_class_balanced)");
}

std::size_t BudgetSchedule::capacity_for_task(std::size_t task, std::size_t num_tasks,
                                              std::size_t base_capacity) const noexcept {
  switch (kind) {
    case BudgetScheduleKind::kConst: return base_capacity;
    case BudgetScheduleKind::kLinear: {
      if (num_tasks <= 1 || task == 0) return linear_start;
      if (task >= num_tasks - 1) return linear_end;
      // Integer interpolation, rounded to the nearest byte so refreshed
      // sweeps reproduce across platforms (no floating-point in the path).
      // delta*task is decomposed through quotient/remainder so byte counts
      // near SIZE_MAX (which the parser admits) cannot wrap: q*task <= delta
      // and r*task < span^2 (task counts are small).  Exact:
      // (delta*task + span/2) / span == q*task + (r*task + span/2) / span.
      const std::size_t span = num_tasks - 1;
      const auto scaled = [span, task](std::size_t delta) {
        return (delta / span) * task + ((delta % span) * task + span / 2) / span;
      };
      if (linear_end >= linear_start) {
        return linear_start + scaled(linear_end - linear_start);
      }
      return linear_start - scaled(linear_start - linear_end);
    }
    case BudgetScheduleKind::kStep:
      return task >= step_task ? step_bytes : base_capacity;
  }
  return base_capacity;
}

std::string BudgetSchedule::spec() const {
  switch (kind) {
    case BudgetScheduleKind::kConst: return "const";
    case BudgetScheduleKind::kLinear:
      return "linear:" + std::to_string(linear_start) + ":" + std::to_string(linear_end);
    case BudgetScheduleKind::kStep:
      return "step:" + std::to_string(step_task) + ":" + std::to_string(step_bytes);
  }
  return "const";
}

namespace {

/// The pinned parse_budget_schedule() failure: every malformed spec names
/// the valid forms, so sweep-config typos cannot survive to a task boundary.
[[noreturn]] void throw_bad_schedule(std::string_view spec) {
  throw Error("unknown budget_schedule '" + std::string(spec) +
              "' (expected const|linear:<start>:<end>|step:<task>:<bytes>)");
}

/// Parses a non-negative integer field of a schedule spec; rejects empty,
/// signed, non-digit, or size_t-overflowing fields through the pinned
/// message (a wrapped byte count would silently mean "unbounded").
std::size_t schedule_field(std::string_view spec, std::string_view field) {
  std::uint64_t value = 0;
  if (!parse_unsigned_decimal(field, value) ||
      value > std::numeric_limits<std::size_t>::max()) {
    throw_bad_schedule(spec);
  }
  return static_cast<std::size_t>(value);
}

/// Adds one entry of class `label` to the label-sorted `counts`.
void count_label(std::vector<std::pair<std::int32_t, std::size_t>>& counts,
                 std::int32_t label) {
  auto it = std::lower_bound(counts.begin(), counts.end(), label,
                             [](const auto& p, std::int32_t l) { return p.first < l; });
  if (it == counts.end() || it->first != label) {
    counts.insert(it, {label, 1});
  } else {
    ++it->second;
  }
}

}  // namespace

BudgetSchedule parse_budget_schedule(std::string_view spec) {
  BudgetSchedule schedule;
  if (spec == "const") return schedule;
  const std::size_t head_end = spec.find(':');
  if (head_end == std::string_view::npos) throw_bad_schedule(spec);
  const std::string_view head = spec.substr(0, head_end);
  const std::string_view rest = spec.substr(head_end + 1);
  const std::size_t mid = rest.find(':');
  if (mid == std::string_view::npos || rest.find(':', mid + 1) != std::string_view::npos) {
    throw_bad_schedule(spec);
  }
  const std::size_t first = schedule_field(spec, rest.substr(0, mid));
  const std::size_t second = schedule_field(spec, rest.substr(mid + 1));
  if (head == "linear") {
    schedule.kind = BudgetScheduleKind::kLinear;
    schedule.linear_start = first;
    schedule.linear_end = second;
  } else if (head == "step") {
    schedule.kind = BudgetScheduleKind::kStep;
    schedule.step_task = first;
    schedule.step_bytes = second;
  } else {
    throw_bad_schedule(spec);
  }
  return schedule;
}

LatentReplayBuffer::LatentReplayBuffer(const compress::CodecConfig& codec,
                                       std::size_t activation_timesteps,
                                       const ReplayBufferConfig& budget)
    : codec_(codec), activation_timesteps_(activation_timesteps), budget_(budget),
      rng_(budget.seed),
      obs_adds_(&obs::metrics().counter("replay_buffer.adds")),
      obs_evictions_(&obs::metrics().counter("replay_buffer.evictions")),
      obs_policy_evictions_(&obs::metrics().counter(
          std::string("replay_buffer.evictions.") + std::string(to_string(budget.policy)))),
      obs_decompress_bits_(&obs::metrics().counter("replay_buffer.decompress_bits")),
      obs_restored_(&obs::metrics().counter("replay_buffer.restored_entries")) {
  R4NCL_CHECK(activation_timesteps > 0, "activation_timesteps must be positive");
  compress::check_codec(codec);
}

std::size_t LatentReplayBuffer::entry_bytes(const Entry& e) const noexcept {
  return compress::stored_bytes(e.packed, header_bytes());
}

bool LatentReplayBuffer::add(const data::SpikeRaster& raster, std::int32_t label) {
  R4NCL_CHECK(raster.timesteps == activation_timesteps_,
              "raster has " << raster.timesteps << " steps, buffer expects "
                            << activation_timesteps_);
  R4NCL_CHECK(empty() || raster.channels == channels_,
              "raster has " << raster.channels << " channels, buffer holds " << channels_);
  Entry entry;
  entry.packed = compress::compress_packed(raster, codec_);
  entry.label = label;
  // The density importance proxy is recorded for every policy (the raster is
  // already in cache from compression), so switching a buffer's consumer to
  // an importance policy mid-run needs no re-scoring pass.
  entry.density = static_cast<float>(raster.density());
  const std::size_t bytes = entry_bytes(entry);
  const std::size_t capacity = budget_.capacity_bytes;
  // Rejected before it is counted, so a throwing add() leaves stream_seen(),
  // evictions() and size() consistent.
  R4NCL_CHECK(capacity == 0 || bytes <= capacity,
              "capacity_bytes=" << capacity << " cannot hold a single " << bytes
                                << "-byte entry");
  if (empty()) channels_ = raster.channels;
  ++stream_seen_;
  obs_adds_->add(1);

  if (capacity > 0 && memory_bytes_ + bytes > capacity) {
    if (budget_.policy == ReplayPolicy::kReservoir) {
      // Algorithm R over the lifetime stream: keep the newcomer with
      // probability size/stream_seen, displacing a uniform victim.  All
      // entries share one geometry, so one eviction always makes room.
      const std::uint64_t j = rng_.uniform_index(stream_seen_);
      if (j >= size()) {
        note_eviction();  // the incoming entry is the one displaced
        return false;
      }
      evict_at(static_cast<std::size_t>(j));
    } else if (budget_.policy == ReplayPolicy::kLowImportance) {
      // One scan settles both questions: whether the *incoming* entry is the
      // one displaced, and otherwise which stored entry gives way.  The
      // newcomer competes density-vs-density only — it is rejected when
      // strictly sparser than a victim still on its density proxy (so a long
      // sparse tail cannot cycle out retained knowledge), but a
      // trainer-scored victim (outcome EMA, a different scale) never blocks
      // admission: saturated error scores on decaying old entries must not
      // starve new-task latents out of the buffer.
      const std::size_t victim = least_important_victim();
      const Entry& least = entries_[victim];
      if (!least.outcome_valid && entry.density < least.density) {
        note_eviction();
        return false;
      }
      evict_at(victim);
      evict_until_fits(capacity, bytes, &label);  // no-op: equal geometry
    } else {
      evict_until_fits(capacity, bytes, &label);
    }
  }

  memory_bytes_ += bytes;
  count_label(class_counts_, label);
  entries_.push_back(std::move(entry));
  return true;
}

void LatentReplayBuffer::evict_at(std::size_t index) {
  const auto victim = entries_.begin() + static_cast<std::ptrdiff_t>(index);
  memory_bytes_ -= entry_bytes(*victim);
  auto it = std::lower_bound(class_counts_.begin(), class_counts_.end(), victim->label,
                             [](const auto& p, std::int32_t l) { return p.first < l; });
  if (--it->second == 0) class_counts_.erase(it);
  entries_.erase(victim);
  note_eviction();
}

void LatentReplayBuffer::note_eviction() noexcept {
  ++evictions_;
  obs_evictions_->add(1);
  obs_policy_evictions_->add(1);
}

std::int32_t LatentReplayBuffer::heaviest_class(const std::int32_t* incoming) const {
  std::int32_t heaviest = 0;
  std::size_t heaviest_count = 0;
  for (const auto& [label, count] : class_counts_) {
    const std::size_t effective =
        count + (incoming != nullptr && label == *incoming ? 1u : 0u);
    if (effective > heaviest_count) {
      heaviest = label;
      heaviest_count = effective;
    }
  }
  return heaviest;
}

std::size_t LatentReplayBuffer::least_important_victim(
    std::optional<std::int32_t> only) const {
  // Strict < keeps ties on the oldest entry, so an all-equal-score buffer
  // degrades to FIFO — deterministic without consuming any rng.
  std::size_t victim = entries_.size();
  float lowest = 0.0f;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (only && entries_[i].label != *only) continue;
    const float score = entries_[i].importance();
    if (victim == entries_.size() || score < lowest) {
      victim = i;
      lowest = score;
    }
  }
  R4NCL_CHECK(victim < entries_.size(), "no entries to evict");
  return victim;
}

void LatentReplayBuffer::evict_until_fits(std::size_t capacity, std::size_t bytes,
                                          const std::int32_t* incoming) {
  while (memory_bytes_ + bytes > capacity) {
    switch (budget_.policy) {
      case ReplayPolicy::kFifo:
        evict_at(0);
        break;
      case ReplayPolicy::kReservoir:
        // Shrink-only branch (add() handles Algorithm R before calling
        // here): displace a uniform stored victim so the retained set stays
        // stream-uniform under the tighter cap.
        evict_at(static_cast<std::size_t>(rng_.uniform_index(size())));
        break;
      case ReplayPolicy::kClassBalanced: {
        // The oldest entry of the heaviest class.  The newcomer counts
        // toward its class when picking it, so a stream heavy in one class
        // displaces its own entries, not the minority classes'.
        const std::int32_t heaviest = heaviest_class(incoming);
        const auto oldest = std::find_if(
            entries_.begin(), entries_.end(),
            [heaviest](const Entry& e) { return e.label == heaviest; });
        evict_at(static_cast<std::size_t>(oldest - entries_.begin()));
        break;
      }
      case ReplayPolicy::kLowImportance:
        evict_at(least_important_victim());
        break;
      case ReplayPolicy::kImportanceClassBalanced:
        evict_at(least_important_victim(heaviest_class(incoming)));
        break;
    }
  }
}

void LatentReplayBuffer::set_capacity(std::size_t new_capacity_bytes) {
  budget_.capacity_bytes = new_capacity_bytes;
  if (new_capacity_bytes == 0 || memory_bytes_ <= new_capacity_bytes) return;
  evict_until_fits(new_capacity_bytes, 0, nullptr);
}

std::vector<std::pair<std::int32_t, std::size_t>> LatentReplayBuffer::class_occupancy()
    const {
  return class_counts_;
}

void LatentReplayBuffer::charge_decompress(const Entry& e, snn::SpikeOpStats* stats) const {
  // Codec entries charge their dequantization/re-expansion work per payload
  // bit, so narrower latent_bits shrink both storage and decompress cost
  // proportionally; raw 1-bit storage (ratio 1, no quantizer) stays free.
  if (codec_.ratio > 1 || codec_.quantized()) {
    const std::uint64_t bits = static_cast<std::uint64_t>(e.packed.payload_bytes()) * 8u;
    obs_decompress_bits_->add(bits);
    if (stats != nullptr) stats->decompress_bits += bits;
  }
}

std::int32_t LatentReplayBuffer::label_at(std::size_t index) const {
  R4NCL_CHECK(index < size(), "entry " << index << " out of " << size());
  return entries_[index].label;
}

float LatentReplayBuffer::density_at(std::size_t index) const {
  R4NCL_CHECK(index < size(), "entry " << index << " out of " << size());
  return entries_[index].density;
}

float LatentReplayBuffer::importance_at(std::size_t index) const {
  R4NCL_CHECK(index < size(), "entry " << index << " out of " << size());
  return entries_[index].importance();
}

void LatentReplayBuffer::report_outcome(std::size_t index, float score) {
  R4NCL_CHECK(index < size(), "entry " << index << " out of " << size());
  Entry& e = entries_[index];
  if (e.outcome_valid) {
    e.outcome += kOutcomeEma * (score - e.outcome);
  } else {
    e.outcome = score;
    e.outcome_valid = true;
  }
}

void LatentReplayBuffer::decompress_into(std::size_t index, data::Sample& out,
                                         snn::SpikeOpStats* stats,
                                         std::vector<std::uint8_t>* levels_scratch) const {
  R4NCL_CHECK(index < size(), "entry " << index << " out of " << size());
  const Entry& e = entries_[index];
  charge_decompress(e, stats);
  compress::decompress_packed_into(e.packed, activation_timesteps_, codec_, out.raster,
                                   levels_scratch);
  out.label = e.label;
}

data::Dataset LatentReplayBuffer::materialize(snn::SpikeOpStats* stats) const {
  data::Dataset out(size());
  for (std::size_t i = 0; i < out.size(); ++i) decompress_into(i, out[i], stats);
  return out;
}

namespace {
constexpr std::uint32_t kBufferTag = make_tag("LRBF");
constexpr std::uint32_t kEntryTag = make_tag("ENTR");
}  // namespace

void LatentReplayBuffer::save(BinaryWriter& out) const {
  out.write_tag(kBufferTag);
  out.write_u32(static_cast<std::uint32_t>(budget_.policy));
  out.write_u64(budget_.capacity_bytes);
  out.write_u64(activation_timesteps_);
  out.write_u64(channels_);
  out.write_u64(memory_bytes_);
  out.write_u64(stream_seen_);
  out.write_u64(evictions_);
  write_rng_state(out, rng_.state());
  out.write_u64(entries_.size());
  for (const Entry& e : entries_) {
    out.write_tag(kEntryTag);
    out.write_u32(e.packed.timesteps);
    out.write_u32(e.packed.channels);
    out.write_u32(e.packed.bits_per_element);
    out.write_u8_vector(e.packed.payload);
    out.write_u32(static_cast<std::uint32_t>(e.label));
    out.write_f32(e.density);
    out.write_f32(e.outcome);
    out.write_u32(e.outcome_valid ? 1u : 0u);
  }
}

void LatentReplayBuffer::load(BinaryReader& in) {
  in.expect_tag(kBufferTag);
  const std::uint32_t stored_policy = in.read_u32();
  R4NCL_CHECK(stored_policy == static_cast<std::uint32_t>(budget_.policy),
              "replay policy mismatch: checkpoint was saved with policy "
                  << stored_policy << ", this buffer runs "
                  << to_string(budget_.policy));
  const std::uint64_t capacity = in.read_u64();
  const std::uint64_t timesteps = in.read_u64();
  R4NCL_CHECK(timesteps == activation_timesteps_,
              "activation-timesteps mismatch: checkpoint has " << timesteps
                                                               << ", this buffer expects "
                                                               << activation_timesteps_);
  const std::uint64_t channels = in.read_u64();
  const std::uint64_t memory_bytes = in.read_u64();
  const std::uint64_t stream_seen = in.read_u64();
  const std::uint64_t evictions = in.read_u64();
  const Rng::State rng = read_rng_state(in);
  const std::uint64_t n = in.read_u64();

  // Decode into scratch first: a corrupt snapshot must throw without leaving
  // this buffer half-replaced.
  std::vector<Entry> entries;
  entries.reserve(std::min<std::uint64_t>(n, in.remaining() / sizeof(std::uint32_t)));
  std::uint64_t recomputed_bytes = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    in.expect_tag(kEntryTag);
    Entry e;
    e.packed.timesteps = in.read_u32();
    e.packed.channels = in.read_u32();
    const std::uint32_t bits = in.read_u32();
    R4NCL_CHECK(compress::valid_payload_bits(bits),
                "corrupt entry " << i << ": bits_per_element " << bits << " not in {1,2,4,8}");
    e.packed.bits_per_element = static_cast<std::uint8_t>(bits);
    e.packed.payload = in.read_u8_vector();
    const std::size_t expected_payload = e.packed.timesteps * e.packed.row_bytes();
    R4NCL_CHECK(e.packed.payload.size() == expected_payload,
                "corrupt entry " << i << ": payload is " << e.packed.payload.size()
                                 << " byte(s), geometry " << e.packed.timesteps << "x"
                                 << e.packed.channels << "@" << bits << "b needs "
                                 << expected_payload);
    e.label = static_cast<std::int32_t>(in.read_u32());
    e.density = in.read_f32();
    e.outcome = in.read_f32();
    const std::uint32_t outcome_valid = in.read_u32();
    R4NCL_CHECK(outcome_valid <= 1,
                "corrupt entry " << i << ": outcome flag is " << outcome_valid);
    e.outcome_valid = outcome_valid != 0;
    R4NCL_CHECK(i == 0 || e.packed.channels == entries.front().packed.channels,
                "corrupt entry " << i << ": channel width " << e.packed.channels
                                 << " differs from the buffer's "
                                 << entries.front().packed.channels);
    recomputed_bytes += entry_bytes(e);
    entries.push_back(std::move(e));
  }
  R4NCL_CHECK(entries.empty() || channels == entries.front().packed.channels,
              "corrupt buffer snapshot: header claims " << channels
                                                        << " channel(s), entries carry "
                                                        << entries.front().packed.channels);
  R4NCL_CHECK(recomputed_bytes == memory_bytes,
              "corrupt buffer snapshot: entries total " << recomputed_bytes
                                                        << " byte(s), header claims "
                                                        << memory_bytes);
  R4NCL_CHECK(capacity == 0 || memory_bytes <= capacity,
              "corrupt buffer snapshot: " << memory_bytes << " byte(s) stored exceeds the "
                                          << capacity << "-byte capacity");

  // Commit: the entries move in as saved, in logical order.
  budget_.capacity_bytes = static_cast<std::size_t>(capacity);
  channels_ = static_cast<std::size_t>(channels);
  memory_bytes_ = static_cast<std::size_t>(memory_bytes);
  stream_seen_ = static_cast<std::size_t>(stream_seen);
  evictions_ = static_cast<std::size_t>(evictions);
  // Registry counters track *live* events only; checkpoint-restored entries
  // are counted separately so the evictions <= adds + restored_entries
  // cross-invariant (tools/check_bench.py) survives a warm resume.
  obs_restored_->add(entries.size());
  rng_.restore(rng);
  entries_ = std::move(entries);
  class_counts_.clear();
  for (const Entry& e : entries_) count_label(class_counts_, e.label);
}

}  // namespace r4ncl::core
