#include "core/checkpoint.hpp"

#include <charconv>
#include <concepts>
#include <string_view>

#include "obs/metrics.hpp"

#include "util/error.hpp"
#include "util/serialize.hpp"

namespace r4ncl::core {

namespace {

constexpr std::uint32_t kFileTag = make_tag("R4CK");
constexpr std::uint32_t kMetaTag = make_tag("META");
constexpr std::uint32_t kOptimTag = make_tag("OPTM");
constexpr std::uint32_t kRngsTag = make_tag("RNGS");
constexpr std::uint32_t kProgTag = make_tag("PROG");
constexpr std::uint32_t kEndTag = make_tag("KEND");
constexpr std::uint32_t kVersion = 4;

void write_stats(BinaryWriter& out, const snn::SpikeOpStats& s) {
  out.write_u64(s.synops);
  out.write_u64(s.neuron_updates);
  out.write_u64(s.spikes);
  out.write_u64(s.timestep_slots);
  out.write_u64(s.backward_synops);
  out.write_u64(s.decompress_bits);
}

snn::SpikeOpStats read_stats(BinaryReader& in) {
  snn::SpikeOpStats s;
  s.synops = in.read_u64();
  s.neuron_updates = in.read_u64();
  s.spikes = in.read_u64();
  s.timestep_slots = in.read_u64();
  s.backward_synops = in.read_u64();
  s.decompress_bits = in.read_u64();
  return s;
}

constexpr std::string_view kSequentialKind = "sequential";
constexpr std::string_view kContinualKind = "continual";
constexpr std::string_view kUnitsKey = "total_units";

/// Whether a fingerprint is a continual run's (run_fingerprint() puts the
/// kind first).
bool is_continual(const RunFingerprint& fingerprint) {
  return !fingerprint.empty() && fingerprint.front().second == kContinualKind;
}

/// A field's fingerprint text: floats in their shortest form that reads
/// back exactly, bools as true/false.
std::string text(std::string_view v) { return std::string(v); }
std::string text(bool v) { return v ? "true" : "false"; }
std::string text(float v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof(buf), v).ptr};
}
std::string text(std::integral auto v) { return std::to_string(v); }

std::string sample_counts(const std::vector<data::Dataset>& sets) {
  std::string out;
  for (const data::Dataset& set : sets) {
    if (!out.empty()) out += ',';
    out += text(set.size());
  }
  return out;
}

/// The run's kind and unit count, then every pinned NclMethodConfig field.
RunFingerprint method_fingerprint(std::string_view kind, std::size_t units,
                                  const NclMethodConfig& m) {
  return {
      {"kind", text(kind)},
      {std::string(kUnitsKey), text(units)},
      {"method_name", m.name},
      {"cl_timesteps", text(m.cl_timesteps)},
      {"codec_ratio", text(m.storage_codec.ratio)},
      {"codec_strategy", text(compress::to_string(m.storage_codec.strategy))},
      {"latent_bits", text(m.storage_codec.latent_bits)},
      {"lr_cl", text(m.lr_cl)},
      {"adaptive_threshold", text(m.adaptive_threshold)},
      {"adjust_interval", text(m.adjust_interval)},
      {"rescale", text(data::to_string(m.rescale))},
      {"use_replay", text(m.use_replay)},
      {"capacity_bytes", text(m.replay_budget.capacity_bytes)},
      {"policy", text(to_string(m.replay_budget.policy))},
      {"eviction_seed", text(m.replay_budget.seed)},
      {"schedule", m.budget_schedule.spec()},
      {"importance_feedback", text(m.importance_feedback)},
      {"replay_samples", text(m.replay_samples_per_epoch)},
      {"shards", text(m.replay_sharding.shards)},
      {"shard_by", text(to_string(m.replay_sharding.shard_by))},
      {"batch_size", text(m.batch_size)},
  };
}

void write_meta(BinaryWriter& out, const CheckpointMeta& m) {
  out.write_tag(kMetaTag);
  out.write_u64(m.fingerprint.size());
  for (const auto& [key, value] : m.fingerprint) {
    out.write_string(key);
    out.write_string(value);
  }
  out.write_u64(m.next_unit);
}

CheckpointMeta read_meta(BinaryReader& in) {
  in.expect_tag(kMetaTag);
  CheckpointMeta m;
  const std::uint64_t n = in.read_u64();
  // A pair is two length-prefixed strings, at least 16 bytes.
  R4NCL_CHECK(n <= in.remaining() / 16,
              "corrupt checkpoint: " << n << " fingerprint pairs exceed the file");
  m.fingerprint.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = in.read_string();
    m.fingerprint.emplace_back(std::move(key), in.read_string());
  }
  m.next_unit = in.read_u64();
  return m;
}

/// Compares the stored fingerprint with this run's pair by pair, where the
/// first difference is the pinned "checkpoint mismatch" error, then bounds
/// the unit cursor by the verified unit count.
void verify_meta(const CheckpointMeta& stored, const RunFingerprint& expected) {
  std::uint64_t units = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& [key, value] = expected[i];
    const bool present = i < stored.fingerprint.size() && stored.fingerprint[i].first == key;
    R4NCL_CHECK(present && stored.fingerprint[i].second == value,
                "checkpoint mismatch: " << key << " was '"
                                        << (present ? stored.fingerprint[i].second : "(absent)")
                                        << "', this run expects '" << value << "'");
    if (key == kUnitsKey) std::from_chars(value.data(), value.data() + value.size(), units);
  }
  R4NCL_CHECK(stored.fingerprint.size() == expected.size(),
              "checkpoint mismatch: " << stored.fingerprint.size()
                                      << " fingerprint pairs, this run expects "
                                      << expected.size());
  R4NCL_CHECK(stored.next_unit <= units, "corrupt checkpoint: next unit "
                                             << stored.next_unit << " beyond the " << units
                                             << "-unit run");
}

void write_progress(BinaryWriter& out, const Checkpoint& ck) {
  out.write_tag(kProgTag);
  if (!is_continual(ck.meta.fingerprint)) {
    const SequentialRunResult& result = ck.sequential;
    out.write_u64(result.rows.size());
    for (const SequentialTaskRow& r : result.rows) {
      out.write_u64(r.task_index);
      out.write_u32(static_cast<std::uint32_t>(r.class_id));
      out.write_f64(r.acc_base);
      out.write_f64(r.acc_learned);
      out.write_f64(r.acc_current);
      out.write_u64(r.latent_memory_bytes);
      out.write_u64(r.budget_bytes);
      out.write_u64(r.buffer_entries);
      out.write_u64(r.buffer_evictions);
      out.write_f64(r.latency_ms);
      out.write_f64(r.energy_uj);
    }
    out.write_f64(result.total_latency_ms);
    out.write_f64(result.total_energy_uj);
  } else {
    const ClRunResult& result = ck.continual;
    out.write_u64(result.rows.size());
    for (const ClEpochRow& r : result.rows) {
      out.write_u64(r.epoch);
      out.write_f64(r.loss);
      out.write_f64(r.acc_old);
      out.write_f64(r.acc_new);
      out.write_f64(r.latency_ms);
      out.write_f64(r.energy_uj);
      write_stats(out, r.stats);
    }
    write_stats(out, result.prep_stats);
    out.write_f64(result.prep_latency_ms);
    out.write_f64(result.prep_energy_uj);
    out.write_u64(result.latent_memory_bytes);
    out.write_f64(result.final_acc_old);
    out.write_f64(result.final_acc_new);
  }
}

/// Reads the PROG section into the result of the fingerprint's kind.
void read_progress(BinaryReader& in, Checkpoint& ck) {
  in.expect_tag(kProgTag);
  if (!is_continual(ck.meta.fingerprint)) {
    SequentialRunResult& result = ck.sequential;
    const std::uint64_t n = in.read_u64();
    // A sequential row serializes to 84 bytes; bound the count before the
    // reserve so a corrupt prefix cannot trigger a huge allocation.
    R4NCL_CHECK(n <= in.remaining() / 84,
                "corrupt checkpoint: " << n << " task rows exceed the file");
    result.rows.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      SequentialTaskRow r;
      r.task_index = in.read_u64();
      r.class_id = static_cast<std::int32_t>(in.read_u32());
      r.acc_base = in.read_f64();
      r.acc_learned = in.read_f64();
      r.acc_current = in.read_f64();
      r.latent_memory_bytes = in.read_u64();
      r.budget_bytes = in.read_u64();
      r.buffer_entries = in.read_u64();
      r.buffer_evictions = in.read_u64();
      r.latency_ms = in.read_f64();
      r.energy_uj = in.read_f64();
      result.rows.push_back(r);
    }
    result.total_latency_ms = in.read_f64();
    result.total_energy_uj = in.read_f64();
  } else {
    ClRunResult& result = ck.continual;
    const std::uint64_t n = in.read_u64();
    // A continual row serializes to 96 bytes.
    R4NCL_CHECK(n <= in.remaining() / 96,
                "corrupt checkpoint: " << n << " epoch rows exceed the file");
    result.rows.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      ClEpochRow r;
      r.epoch = in.read_u64();
      r.loss = in.read_f64();
      r.acc_old = in.read_f64();
      r.acc_new = in.read_f64();
      r.latency_ms = in.read_f64();
      r.energy_uj = in.read_f64();
      r.stats = read_stats(in);
      result.rows.push_back(r);
    }
    result.prep_stats = read_stats(in);
    result.prep_latency_ms = in.read_f64();
    result.prep_energy_uj = in.read_f64();
    result.latent_memory_bytes = in.read_u64();
    result.final_acc_old = in.read_f64();
    result.final_acc_new = in.read_f64();
  }
}

}  // namespace

RunFingerprint run_fingerprint(const ClRunConfig& config,
                               const data::ClassIncrementalTasks& tasks) {
  RunFingerprint f = method_fingerprint(kContinualKind, config.epochs, config.method);
  f.insert(f.end(), {{"insertion_layer", text(config.insertion_layer)},
                     {"eval_every", text(config.eval_every)},
                     {"seed", text(config.seed)},
                     {"replay_subset_samples", text(tasks.replay_subset.size())},
                     {"new_train_samples", text(tasks.new_train.size())},
                     {"pretrain_test_samples", text(tasks.pretrain_test.size())},
                     {"new_test_samples", text(tasks.new_test.size())}});
  return f;
}

RunFingerprint run_fingerprint(const SequentialRunConfig& config,
                               const data::SequentialTasks& tasks) {
  RunFingerprint f =
      method_fingerprint(kSequentialKind, tasks.task_classes.size(), config.method);
  f.insert(f.end(), {{"insertion_layer", text(config.insertion_layer)},
                     {"epochs_per_task", text(config.epochs_per_task)},
                     {"replay_per_new_class", text(config.replay_per_new_class)},
                     {"seed", text(config.seed)},
                     {"replay_subset_samples", text(tasks.replay_subset.size())},
                     {"pretrain_test_samples", text(tasks.pretrain_test.size())},
                     {"task_train_samples", sample_counts(tasks.task_train)},
                     {"task_test_samples", sample_counts(tasks.task_test)}});
  return f;
}

void save_checkpoint(const std::string& path, const Checkpoint& ck,
                     const snn::SnnNetwork& net, const snn::AdamOptimizer* optimizer,
                     const ShardedReplayEngine& engine) {
  obs::metrics().counter("checkpoint.saves").add(1);
  obs::TraceSpan save_span(obs::metrics(), "checkpoint.save_seconds");
  BinaryWriter out(path);
  out.write_tag(kFileTag);
  out.write_u32(kVersion);
  write_meta(out, ck.meta);
  net.save(out);
  out.write_tag(kOptimTag);
  out.write_u32(optimizer != nullptr ? 1u : 0u);
  if (optimizer != nullptr) optimizer->save(out);
  engine.save(out);
  out.write_tag(kRngsTag);
  write_rng_state(out, ck.unit_rng);
  write_rng_state(out, ck.replay_rng);
  write_progress(out, ck);
  out.write_tag(kEndTag);
  out.close();
}

Checkpoint load_checkpoint(const std::string& path, const RunFingerprint& expected,
                           snn::SnnNetwork& net, snn::AdamOptimizer* optimizer,
                           ShardedReplayEngine& engine) {
  obs::metrics().counter("checkpoint.loads").add(1);
  obs::TraceSpan load_span(obs::metrics(), "checkpoint.load_seconds");
  BinaryReader in(path);
  in.expect_tag(kFileTag);
  const std::uint32_t version = in.read_u32();
  R4NCL_CHECK(version == kVersion, "unsupported checkpoint version " << version
                                                                     << " in " << path
                                                                     << " (this build reads "
                                                                     << kVersion << ")");
  Checkpoint ck;
  ck.meta = read_meta(in);
  verify_meta(ck.meta, expected);
  net.load(in);
  in.expect_tag(kOptimTag);
  const std::uint32_t have_optimizer = in.read_u32();
  R4NCL_CHECK(have_optimizer <= 1,
              "corrupt checkpoint: optimizer flag is " << have_optimizer);
  R4NCL_CHECK((have_optimizer != 0) == (optimizer != nullptr),
              "checkpoint mismatch: optimizer state "
                  << (have_optimizer != 0 ? "present" : "absent") << " in " << path
                  << " but the resuming run " << (optimizer != nullptr ? "needs" : "ignores")
                  << " it");
  if (optimizer != nullptr) optimizer->load(in);
  engine.load(in);
  in.expect_tag(kRngsTag);
  ck.unit_rng = read_rng_state(in);
  ck.replay_rng = read_rng_state(in);
  read_progress(in, ck);
  in.expect_tag(kEndTag);
  R4NCL_CHECK(in.remaining() == 0,
              "corrupt checkpoint: " << in.remaining() << " trailing byte(s) after the end tag in "
                                     << path);
  return ck;
}

}  // namespace r4ncl::core
