// fleet_replay — one replay engine serving many device sessions.
//
// kSessions simulated device sessions share one ShardedReplayEngine: 4
// shards routed by class, low_importance eviction, 2-bit latents at the
// insertion-layer-2 geometry (40 timesteps x 100 channels) taken from a
// seeded raster pool.  Each session behaves like a trainer — every epoch it
// draws k = 16 entries and reports an outcome for each drawn entry, and at
// each task boundary it adds new latents — and each of kClients client
// threads serves a fixed slice of the sessions round-robin: a closed loop.
// Set-up pre-fills the byte budget exactly, so every steady-state add
// evicts or is rejected.  There is no SNN work: only core locking, eviction
// and importance bookkeeping and compress encode/decode move these numbers,
// and draws run beside adds, so a read-side lock change that slows adds
// shows.
#include <chrono>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_engine.hpp"
#include "metrics/cost_model.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace r4ncl;

constexpr std::size_t kSessions = 256;
/// Two clients already contend hard (a draw takes ~8x its single-client
/// time), and leaving half of a 4-core host idle keeps lock holders from
/// being descheduled by unrelated load, which otherwise swamps the tails.
constexpr std::size_t kClients = 2;
constexpr std::size_t kShards = 4;
constexpr std::size_t kTimesteps = 40;
constexpr std::size_t kChannels = 100;
constexpr std::size_t kDraw = 16;
constexpr std::size_t kEpochsPerTask = 4;
constexpr std::size_t kAddsPerTask = 2;
constexpr std::size_t kClasses = 20;
constexpr std::size_t kPoolSize = 1024;
/// Byte budget in entries: kCapacityEntries / kShards per shard, which the
/// pool's cyclic labels fill exactly during the pre-fill.
constexpr std::size_t kCapacityEntries = 512;
constexpr compress::CodecConfig kCodec{
    .ratio = 1, .strategy = compress::CodecStrategy::kSubsample, .latent_bits = 2};

/// Seeded stand-ins for layer-2 latents: each raster's spike density is
/// uniform in [0.02, 0.20], so low_importance has real ranking work; labels
/// cycle through the classes so the pre-fill loads every shard evenly.
data::Dataset make_pool(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 10));
  data::Dataset pool(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    pool[i].raster = data::SpikeRaster(kTimesteps, kChannels);
    pool[i].label = static_cast<std::int32_t>(i % kClasses);
    const double density = rng.uniform(0.02, 0.20);
    for (std::uint8_t& bit : pool[i].raster.bits) bit = rng.bernoulli(density) ? 1 : 0;
  }
  return pool;
}

struct Session {
  Rng rng;
  std::size_t next_add = 0;  // pool index of the next task-boundary add
  std::size_t epoch = 0;
  double task_s = 0.0;
  snn::SpikeOpStats task_ops;
};

struct ClientStats {
  Samples add_us;
  Samples draw_us;
  Samples task_s;
  Samples task_uj;
  std::uint64_t adds = 0;
  std::uint64_t stored = 0;
  std::uint64_t draws = 0;
  std::uint64_t short_draws = 0;
  std::uint64_t errors = 0;
  /// Operations completed in each whole second of the window.
  std::vector<std::uint64_t> ops_per_second;

  void merge(const ClientStats& o) {
    if (ops_per_second.size() < o.ops_per_second.size()) {
      ops_per_second.resize(o.ops_per_second.size());
    }
    for (std::size_t i = 0; i < o.ops_per_second.size(); ++i) {
      ops_per_second[i] += o.ops_per_second[i];
    }
    add_us.append(o.add_us);
    draw_us.append(o.draw_us);
    task_s.append(o.task_s);
    task_uj.append(o.task_uj);
    adds += o.adds;
    stored += o.stored;
    draws += o.draws;
    short_draws += o.short_draws;
    errors += o.errors;
  }
};

/// One closed-loop step of a session: an epoch's draw, or — after
/// kEpochsPerTask of them — the task boundary's adds, which end the task.
/// Returns the engine operations it completed.
std::uint64_t step(core::ShardedReplayEngine& engine, const data::Dataset& pool, Session& ses,
                   ClientStats& st, SpanLog& log, data::Dataset& out) {
  if (ses.epoch < kEpochsPerTask) {
    out.clear();
    Stopwatch watch;
    {
      SpanLog::Scope span(log, "core.draw");
      const std::vector<std::size_t> drawn = engine.sample_into(kDraw, ses.rng, out, &ses.task_ops);
      for (const std::size_t i : drawn) {
        engine.report_outcome(i, ses.rng.bernoulli(0.25) ? 1.0f : 0.0f);
      }
    }
    const double seconds = watch.elapsed_seconds();
    st.draw_us.add(seconds * 1e6);
    ses.task_s += seconds;
    ++st.draws;
    if (out.size() < kDraw) ++st.short_draws;
    ++ses.epoch;
    return 1;
  }
  for (std::size_t j = 0; j < kAddsPerTask; ++j) {
    const data::Sample& latent = pool[ses.next_add];
    ses.next_add = (ses.next_add + 1) % pool.size();
    ++st.adds;
    Stopwatch watch;
    bool stored = false;
    {
      SpanLog::Scope span(log, "core.add");
      stored = engine.add(latent.raster, latent.label);
    }
    const double seconds = watch.elapsed_seconds();
    st.add_us.add(seconds * 1e6);
    ses.task_s += seconds;
    if (stored) ++st.stored;
  }
  st.task_s.add(ses.task_s);
  st.task_uj.add(metrics::EnergyModel().energy_uj(ses.task_ops));
  ses.task_s = 0.0;
  ses.task_ops = {};
  ses.epoch = 0;
  return kAddsPerTask;
}

/// Runs every client against `engine` for `seconds`; returns the merged
/// client stats and sets `wall_s`.
ClientStats run_clients(core::ShardedReplayEngine& engine, const data::Dataset& pool,
                        std::vector<Session>& sessions, std::vector<SpanLog>& logs,
                        double seconds, double& wall_s) {
  const std::size_t clients = logs.size();
  std::vector<ClientStats> stats(clients);
  const auto start = SpanLog::Clock::now();
  const auto deadline = start + std::chrono::duration_cast<SpanLog::Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  Stopwatch wall;
  run_workers(clients, [&](std::size_t c) {
    SpanLog::Scope client(logs[c], "fleet.client");
    ClientStats& st = stats[c];
    st.ops_per_second.assign(static_cast<std::size_t>(seconds), 0);
    data::Dataset out;
    out.reserve(kDraw);
    while (SpanLog::Clock::now() < deadline) {
      for (std::size_t s = c; s < sessions.size() && SpanLog::Clock::now() < deadline;
           s += clients) {
        try {
          const std::uint64_t done = step(engine, pool, sessions[s], st, logs[c], out);
          const auto second = static_cast<std::size_t>(
              std::chrono::duration<double>(SpanLog::Clock::now() - start).count());
          if (second < st.ops_per_second.size()) st.ops_per_second[second] += done;
        } catch (const std::exception&) {
          ++st.errors;
        }
      }
    }
  });
  wall_s = wall.elapsed_seconds();
  ClientStats merged;
  for (const ClientStats& st : stats) merged.merge(st);
  return merged;
}

}  // namespace

void run_fleet_replay(const RunArgs& args, Report& report) {
  const auto origin = SpanLog::Clock::now();
  SpanLog main_log(args.trace, origin);
  data::Dataset pool;
  double synth_s = 0.0;
  {
    SpanLog::Scope span(main_log, "data.synth");
    Stopwatch watch;
    pool = make_pool(args.seed);
    synth_s = watch.elapsed_seconds();
  }
  const std::size_t entry_bytes = [&] {
    core::LatentReplayBuffer probe(kCodec, kTimesteps);
    (void)probe.add(pool.front().raster, pool.front().label);
    return probe.memory_bytes();
  }();
  const std::size_t capacity = entry_bytes * kCapacityEntries;
  const core::ReplayBufferConfig budget{.capacity_bytes = capacity,
                                        .policy = core::ReplayPolicy::kLowImportance,
                                        .seed = derive_seed(args.seed, 11)};
  const core::ShardedEngineConfig sharding{.shards = kShards, .shard_by = core::ShardKey::kClass};

  // Set-up: engine construction plus a pre-fill to the byte budget by the
  // clients, each adding its contiguous share at once; the shares' labels
  // line up, so the clients contend for the same shard as they go.
  const std::size_t clients = std::min(kClients, static_cast<std::size_t>(args.threads));
  const std::size_t share = kCapacityEntries / clients;
  Samples setup;
  std::unique_ptr<core::ShardedReplayEngine> engine;
  bool filled = true;
  for (const Stopwatch all; setup.count() < kSetupReps || all.elapsed_seconds() < kSetupSeconds;) {
    std::unique_ptr<core::ShardedReplayEngine> fresh;
    {
      SpanLog::Scope span(main_log, "core.prep");
      Stopwatch watch;
      fresh = std::make_unique<core::ShardedReplayEngine>(kCodec, kTimesteps, budget, sharding);
      run_workers(clients, [&](std::size_t c) {
        const std::size_t end = c + 1 == clients ? kCapacityEntries : (c + 1) * share;
        for (std::size_t i = c * share; i < end; ++i) (void)fresh->add(pool[i].raster, pool[i].label);
      });
      setup.add(watch.elapsed_seconds());
    }
    filled = filled && fresh->evictions() == 0 && fresh->memory_bytes() == capacity;
    engine = std::move(fresh);
  }
  const double setup_s = setup.median();
  report.check(filled, "every pre-fill fills the byte budget exactly without evicting");

  std::vector<Session> sessions;
  sessions.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions.push_back({Rng(derive_seed(args.seed, 1000 + s)),
                        static_cast<std::size_t>(derive_seed(args.seed, 5000 + s) % kPoolSize),
                        0, 0.0, {}});
  }
  std::vector<SpanLog> logs;
  for (std::size_t c = 0; c < clients; ++c) {
    logs.emplace_back(false, origin, static_cast<int>(c + 1));
  }

  // Timed phase; a traced run spends its second half with the registry and
  // the span logs armed, so the trace overhead is measured in one process.
  double wall = 0.0;
  const ClientStats u = run_clients(*engine, pool, sessions, logs,
                                    args.trace ? args.seconds / 2 : args.seconds, wall);
  ClientStats t;
  if (args.trace) {
    for (SpanLog& log : logs) log.set_enabled(true);
    arm_registry();
    double traced_wall = 0.0;
    t = run_clients(*engine, pool, sessions, logs, args.seconds / 2, traced_wall);
    obs::metrics().set_armed(false);
  }

  const std::uint64_t adds = u.adds + t.adds;
  const std::uint64_t draws = u.draws + t.draws;
  report.check(engine->stream_seen() == kCapacityEntries + adds,
               "zero lost adds: stream_seen == pre-fill + attempted adds");
  report.check(engine->size() == engine->stream_seen() - engine->evictions(),
               "lifetime accounting: entries == adds - evictions");
  report.check(engine->memory_bytes() <= capacity, "byte budget held");
  std::size_t shard_sum = 0;
  for (std::size_t s = 0; s < engine->num_shards(); ++s) shard_sum += engine->shard(s).size();
  report.check(shard_sum == engine->size(), "shard sizes sum to the global size");
  report.attempted(adds + draws);
  report.failed(u.errors + t.errors, "exceptions from engine calls");
  report.failed(u.short_draws + t.short_draws, "short draws (fewer than 16 entries)");
  report.note("sessions " + std::to_string(kSessions) + " on " + std::to_string(clients) +
              " clients; budget " + std::to_string(capacity) + " B (" +
              std::to_string(kCapacityEntries) + " entries); evictions " +
              std::to_string(engine->evictions()));

  report.metric("setup_s", setup_s, "s", setup.count(),
                "median engine construction + pre-fill of 512 entries by the clients");
  report.metric("learn_s", u.task_s.median(), "s", u.task_s.count(),
                "median replay-call time of one session task (4 draws + 2 adds)");
  report.metric("latent_bytes", static_cast<double>(engine->memory_bytes()), "B", 1,
                "engine footprint at the end");
  report.metric("energy_uj", u.task_uj.median(), "uJ", u.task_uj.count(),
                "median modelled decode energy of one session task");
  Samples per_second;
  for (const std::uint64_t ops : u.ops_per_second) per_second.add(static_cast<double>(ops));
  report.metric("core.ops_per_s", per_second.median(), "1/s", u.adds + u.draws,
                "median over " + std::to_string(per_second.count()) +
                    " whole seconds of adds + draws completed, " + std::to_string(clients) +
                    " clients");
  report.note("untraced window: " + std::to_string(wall) + " s, mean " +
              std::to_string(static_cast<double>(u.adds + u.draws) / wall) + " ops/s");
  report_percentiles(report, "core.add", u.add_us, "us", "ShardedReplayEngine::add");
  report_percentiles(report, "core.draw", u.draw_us, "us",
                     "sample_into(16) + report_outcome per drawn entry");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "process peak resident set");

  if (!args.trace) return;
  const std::size_t n = t.task_s.count();
  const double tasks = static_cast<double>(n);
  const CodecTiming codec = time_codec(pool, kCodec, kTimesteps);
  report.metric("data.synth_s", synth_s, "s", 1, "raster pool generation (excluded from setup_s)");
  for (const char* name : {"snn.pretrain_s", "snn.prefix_s", "snn.train_s", "snn.stall_s",
                           "snn.assemble_s", "metrics.eval_s"}) {
    report.metric(name, 0.0, "s", 0, "no SNN work on this workload");
  }
  for (const char* name : {"snn.synops", "snn.backward_synops", "snn.spikes", "metrics.evals"}) {
    report.metric(name, 0.0, "count", 0, "no SNN work on this workload");
  }
  report.metric("compress.decompress_bits", obs_count("replay_buffer.decompress_bits") / tasks,
                "bits", n, "obs replay_buffer.decompress_bits per session task");
  report.metric("compress.encode_us", codec.encode_us, "us", codec.calls,
                "bench span p50: compress_packed on the pool rasters");
  report.metric("compress.decode_us", codec.decode_us, "us", codec.calls,
                "bench span p50: decompress_packed_into on the pool rasters");
  report.metric("core.prep_s", setup_s, "s", setup.count(),
                "bench span: engine construction + pre-fill (median)");
  report.metric("core.adds", obs_count("replay_engine.adds") / tasks, "count", n,
                "obs replay_engine.adds per session task");
  report.metric("core.evictions", obs_count("replay_buffer.evictions") / tasks, "count", n,
                "obs replay_buffer.evictions per session task");
  report.metric("core.admit_ratio", static_cast<double>(t.stored) / static_cast<double>(t.adds),
                "ratio", t.adds, "stored / attempted adds (traced half)");
  report.metric("core.add_self_us", u.add_us.block_median(50.0, kMinP99Samples) - codec.encode_us,
                "us", u.add_us.count(), "add p50 - encode p50 (victim search, locking, bookkeeping)");
  report.metric("core.lock_wait_s", obs_seconds("replay_engine.lock_wait_seconds") / tasks, "s",
                n, "obs replay_engine.lock_wait_seconds (adds) per session task");
  report.metric("core.shard_skew", obs_shard_skew(kShards), "ratio", kShards,
                "max / mean obs replay_engine.shard<i>.adds");
  report.metric("core.short_draws", static_cast<double>(u.short_draws + t.short_draws), "count",
                draws, "draws returning fewer than 16 entries");
  report.metric("obs.trace_overhead_pct",
                (t.task_s.median() - u.task_s.median()) / u.task_s.median() * 100.0, "%", n,
                "(traced - untraced) / untraced median session-task time");
  double op_s = 0.0;
  double client_s = 0.0;
  for (const SpanLog& log : logs) {
    op_s += log.total("core.add") + log.total("core.draw");
    client_s += log.total("fleet.client");
  }
  report.metric("obs.coverage_pct", op_s / client_s * 100.0, "%", n,
                "add + draw span time / client span time (traced half)");
  std::vector<const SpanLog*> all{&main_log};
  for (const SpanLog& log : logs) all.push_back(&log);
  const std::string path =
      args.out_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
  write_spans(path, args, all);
  report.note("span log: " + path);
}

}  // namespace perfbench
