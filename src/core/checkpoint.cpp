#include "core/checkpoint.hpp"

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
constexpr std::uint32_t kVersion = 3;

void write_rng_state(BinaryWriter& out, const Rng::State& s) {
  out.write_u64(s.state);
  out.write_u32(s.have_spare_normal ? 1u : 0u);
  out.write_f64(s.spare_normal);
}

Rng::State read_rng_state(BinaryReader& in) {
  Rng::State s;
  s.state = in.read_u64();
  const std::uint32_t have_spare = in.read_u32();
  R4NCL_CHECK(have_spare <= 1, "corrupt rng snapshot: spare-normal flag is " << have_spare);
  s.have_spare_normal = have_spare != 0;
  s.spare_normal = in.read_f64();
  return s;
}

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

void write_meta(BinaryWriter& out, const CheckpointMeta& m) {
  out.write_tag(kMetaTag);
  out.write_u32(static_cast<std::uint32_t>(m.kind));
  out.write_string(m.method_name);
  out.write_string(m.policy);
  out.write_string(m.schedule);
  out.write_u64(m.capacity_bytes);
  out.write_u32(m.codec_ratio);
  out.write_u32(m.codec_strategy);
  out.write_u32(m.latent_bits);
  out.write_u64(m.cl_timesteps);
  out.write_u64(m.shards);
  out.write_string(m.shard_by);
  out.write_u64(m.replay_samples);
  out.write_u32(m.importance_feedback ? 1u : 0u);
  out.write_u64(m.batch_size);
  out.write_u64(m.insertion_layer);
  out.write_u64(m.seed);
  out.write_u64(m.total_units);
  out.write_u64(m.next_unit);
}

CheckpointMeta read_meta(BinaryReader& in) {
  in.expect_tag(kMetaTag);
  CheckpointMeta m;
  const std::uint32_t kind = in.read_u32();
  R4NCL_CHECK(kind <= 1, "corrupt checkpoint: unknown kind " << kind);
  m.kind = static_cast<CheckpointKind>(kind);
  m.method_name = in.read_string();
  m.policy = in.read_string();
  m.schedule = in.read_string();
  m.capacity_bytes = in.read_u64();
  m.codec_ratio = in.read_u32();
  m.codec_strategy = in.read_u32();
  m.latent_bits = in.read_u32();
  m.cl_timesteps = in.read_u64();
  m.shards = in.read_u64();
  m.shard_by = in.read_string();
  m.replay_samples = in.read_u64();
  const std::uint32_t feedback = in.read_u32();
  R4NCL_CHECK(feedback <= 1, "corrupt checkpoint: importance_feedback flag is " << feedback);
  m.importance_feedback = feedback != 0;
  m.batch_size = in.read_u64();
  m.insertion_layer = in.read_u64();
  m.seed = in.read_u64();
  m.total_units = in.read_u64();
  m.next_unit = in.read_u64();
  R4NCL_CHECK(m.next_unit <= m.total_units, "corrupt checkpoint: next unit "
                                                << m.next_unit << " beyond the "
                                                << m.total_units << "-unit run");
  return m;
}

/// One pinned "checkpoint mismatch" comparison; streams both values.
#define R4NCL_META_MATCH(field)                                                        \
  R4NCL_CHECK(stored.field == expected.field,                                          \
              "checkpoint mismatch: " #field " was '" << stored.field << "', this run " \
                                                      << "expects '" << expected.field \
                                                      << "'")

void verify_meta(const CheckpointMeta& stored, const CheckpointMeta& expected) {
  R4NCL_CHECK(stored.kind == expected.kind,
              "checkpoint mismatch: kind was "
                  << static_cast<std::uint32_t>(stored.kind) << " (0=sequential, 1=continual), "
                  << "this run expects " << static_cast<std::uint32_t>(expected.kind));
  R4NCL_META_MATCH(method_name);
  R4NCL_META_MATCH(policy);
  R4NCL_META_MATCH(schedule);
  R4NCL_META_MATCH(capacity_bytes);
  R4NCL_META_MATCH(codec_ratio);
  R4NCL_META_MATCH(codec_strategy);
  R4NCL_META_MATCH(latent_bits);
  R4NCL_META_MATCH(cl_timesteps);
  R4NCL_META_MATCH(shards);
  R4NCL_META_MATCH(shard_by);
  R4NCL_META_MATCH(replay_samples);
  R4NCL_META_MATCH(importance_feedback);
  R4NCL_META_MATCH(batch_size);
  R4NCL_META_MATCH(insertion_layer);
  R4NCL_META_MATCH(seed);
  R4NCL_META_MATCH(total_units);
}

#undef R4NCL_META_MATCH

void write_progress(BinaryWriter& out, const Checkpoint& ck) {
  out.write_tag(kProgTag);
  if (ck.meta.kind == CheckpointKind::kSequential) {
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

/// Reads the PROG section into the result of ck.meta.kind.  The method name
/// and insertion layer are not stored: the verified META already pins them.
void read_progress(BinaryReader& in, Checkpoint& ck) {
  in.expect_tag(kProgTag);
  if (ck.meta.kind == CheckpointKind::kSequential) {
    SequentialRunResult& result = ck.sequential;
    result.method_name = ck.meta.method_name;
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
    result.method_name = ck.meta.method_name;
    result.insertion_layer = ck.meta.insertion_layer;
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

CheckpointMeta make_checkpoint_meta(CheckpointKind kind, const NclMethodConfig& method,
                                    std::size_t insertion_layer, std::uint64_t seed,
                                    std::size_t total_units) {
  CheckpointMeta m;
  m.kind = kind;
  m.method_name = method.name;
  m.policy = std::string(to_string(method.replay_budget.policy));
  m.schedule = method.budget_schedule.spec();
  m.capacity_bytes = method.replay_budget.capacity_bytes;
  m.codec_ratio = method.storage_codec.ratio;
  m.codec_strategy = static_cast<std::uint32_t>(method.storage_codec.strategy);
  m.latent_bits = method.storage_codec.latent_bits;
  m.cl_timesteps = method.cl_timesteps;
  m.shards = method.replay_sharding.shards;
  m.shard_by = std::string(to_string(method.replay_sharding.shard_by));
  m.replay_samples = method.replay_samples_per_epoch;
  m.importance_feedback = method.importance_feedback;
  m.batch_size = method.batch_size;
  m.insertion_layer = insertion_layer;
  m.seed = seed;
  m.total_units = total_units;
  m.next_unit = 0;
  return m;
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

Checkpoint load_checkpoint(const std::string& path, const CheckpointMeta& expected,
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
