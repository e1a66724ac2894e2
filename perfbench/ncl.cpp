// The neuromorphic continual-learning workloads.
//
// ncl_single — the paper's Table-1 run: Replay4NCL (T* = 40, adaptive
//   threshold, raw ratio-1 latents) at insertion layer 3 for 40 epochs at
//   scale 1.0 — 19 pre-trained classes, then class 19 is learned.  Only the
//   readout learns, so a CL phase spends its time re-running the frozen
//   prefix over TS_cl every epoch (Alg. 1 line 23), evaluating and updating
//   the readout; deployed batch-1 inference follows.
// ncl_stream — a 10-task stream over 10 base classes at insertion layer 2:
//   2-bit latents, low_importance eviction with trainer feedback, streamed
//   and prefetched replay, a 16-entry draw per epoch and the budget_stream
//   default budget (base latents plus three tasks), so eviction starts at
//   task 4.  BPTT through a hidden layer, the quantized decode fused into
//   ReplayStream/BatchPipeline and importance eviction all do real work.
//
// Set-up pre-trains from scratch with train_supervised several times (no
// checkpoint cache, so no run reuses another's work) and checks that the
// repetitions are bit-identical.  The timed phase repeats the learning unit
// on fresh clones of one pre-trained network.  A traced run then replays the
// unit's replay-store calls — its adds in order and its per-epoch draws, made
// as the unit makes them — against fresh engines of the run's configuration:
// the per-layer engine latencies, the uncontended counterpart of the
// fleet_replay numbers.
#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/replay_stream.hpp"
#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "data/shd_synth.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace r4ncl;

/// Share of --seconds spent repeating the learning unit; deployed inference
/// takes the rest.
constexpr double kLearnShare = 0.85;
/// Share of --seconds a traced run spends replaying the unit's engine
/// traffic.  Single-threaded engine calls on a shared host switch between
/// two speeds about 1.7x apart, in stretches from a tenth of a second to
/// whole seconds, so the replay runs for seconds rather than milliseconds.
constexpr double kTrafficShare = 0.25;
constexpr std::size_t kStreamTasks = 10;

/// The paper-scale (scale 1.0) pre-training configuration.  The class
/// prototypes (the synthetic task itself) stay the standard ones; the run
/// seed drives every sample the generator draws for the split.
core::PretrainConfig seeded_config(std::uint64_t seed) {
  core::PretrainConfig pc = core::standard_pretrain_config(1.0);
  pc.split.seed = derive_seed(seed, 2);
  return pc;
}

/// Logits of the first probe batch: the bit-identity fingerprint of a
/// pre-trained network.
std::vector<float> fingerprint(const snn::SnnNetwork& net, const data::Dataset& probe) {
  std::vector<std::size_t> idx(std::min<std::size_t>(16, probe.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const Tensor logits = net.forward_logits(data::make_batch(probe, idx), 0,
                                           snn::ThresholdPolicy::fixed(1.0f));
  return {logits.raw(), logits.raw() + logits.size()};
}

/// Set-up (Alg. 1 lines 1–5): pre-trains a fresh network kSetupReps times
/// (and for kSetupSeconds) and returns the first; every repetition must be
/// bit-identical.
snn::SnnNetwork pretrain(const core::PretrainConfig& pc, const data::Dataset& train,
                         const data::Dataset& probe, SpanLog& spans, Samples& setup,
                         Report& report) {
  std::optional<snn::SnnNetwork> first;
  std::vector<float> first_print;
  bool identical = true;
  for (const Stopwatch all; setup.count() < kSetupReps || all.elapsed_seconds() < kSetupSeconds;) {
    snn::SnnNetwork net{pc.network};
    snn::AdamOptimizer optimizer;
    snn::TrainOptions opts;
    opts.epochs = pc.epochs;
    opts.batch_size = pc.batch_size;
    opts.lr = pc.lr;
    opts.shuffle_seed = pc.shuffle_seed;
    {
      SpanLog::Scope span(spans, "snn.pretrain");
      Stopwatch watch;
      (void)snn::train_supervised(net, train, optimizer, opts);
      setup.add(watch.elapsed_seconds());
    }
    std::vector<float> print = fingerprint(net, probe);
    if (!first) {
      first.emplace(std::move(net));
      first_print = std::move(print);
    } else {
      identical = identical && print == first_print;
    }
  }
  report.check(identical, "pre-training repetitions are bit-identical");
  return std::move(*first);
}

/// Frozen-prefix inference [0, insertion) in contiguous blocks of `batch`
/// samples — the run engines' blocking, to which the adaptive threshold
/// couples every latent.
data::Dataset prefix_latents(const snn::SnnNetwork& net, const data::Dataset& dataset,
                             std::size_t insertion, const snn::ThresholdPolicy& policy,
                             std::size_t batch) {
  data::Dataset out;
  out.reserve(dataset.size());
  std::vector<std::size_t> idx;
  for (std::size_t lo = 0; lo < dataset.size(); lo += batch) {
    idx.clear();
    for (std::size_t i = lo; i < std::min(dataset.size(), lo + batch); ++i) idx.push_back(i);
    const Tensor latent = net.run_hidden(data::make_batch(dataset, idx), 0, insertion, policy);
    for (std::size_t b = 0; b < idx.size(); ++b) {
      out.push_back({data::batch_to_raster(latent, b), dataset[idx[b]].label});
    }
  }
  return out;
}

/// Alg. 1 network preparation as the run engines do it: TS_replay rescaled
/// to the method's time base, the frozen prefix, every latent added to a
/// fresh engine of the run's configuration.
void prepare(const snn::SnnNetwork& net, const data::Dataset& replay, std::size_t insertion,
             const core::NclMethodConfig& method, std::uint64_t run_seed) {
  const data::Dataset rescaled =
      data::time_rescale(replay, method.cl_timesteps, method.rescale);
  core::ShardedReplayEngine engine(method.storage_codec, method.cl_timesteps,
                                   method.replay_budget.with_run_seed(run_seed),
                                   method.replay_sharding);
  for (const data::Sample& s :
       prefix_latents(net, rescaled, insertion, method.policy(), method.batch_size)) {
    (void)engine.add(s.raster, s.label);
  }
}

/// One step of a learning unit's replay-store traffic: `draws` per-epoch
/// draws, then the adds of `adds` in order.
struct TrafficStep {
  std::size_t draws = 0;
  data::Dataset adds;
};

struct Traffic {
  Samples add_us;
  Samples draw_us;
  double wall_s = 0.0;
  std::uint64_t stored = 0;
  std::uint64_t short_draws = 0;
  bool accounted = true;
};

/// Replays `steps` on fresh engines of `method`'s configuration for
/// kTrafficShare of --seconds, whatever the timed phase did, and at least
/// until kMinP99Samples adds and draws are timed.  `draw(engine, rng)` makes
/// one per-epoch draw the way the learning unit does and returns the entries
/// it produced; a draw asks for replay_samples_per_epoch entries (0: all).
template <typename Draw>
Traffic replay_traffic(const RunArgs& args, const core::NclMethodConfig& method,
                       std::uint64_t run_seed, const std::vector<TrafficStep>& steps,
                       Draw&& draw) {
  Traffic t;
  const std::size_t k = method.replay_samples_per_epoch;
  Stopwatch wall;
  while (wall.elapsed_seconds() < args.seconds * kTrafficShare ||
         t.add_us.count() < kMinP99Samples || t.draw_us.count() < kMinP99Samples) {
    core::ShardedReplayEngine engine(method.storage_codec, method.cl_timesteps,
                                     method.replay_budget.with_run_seed(run_seed),
                                     method.replay_sharding);
    Rng draw_rng(run_seed ^ core::kReplayDrawSeedSalt);
    std::size_t attempted = 0;
    for (const TrafficStep& step : steps) {
      for (std::size_t d = 0; d < step.draws; ++d) {
        const std::size_t held = engine.size();
        Stopwatch watch;
        const std::size_t got = draw(engine, draw_rng);
        t.draw_us.add(watch.elapsed_seconds() * 1e6);
        if (got < (k == 0 ? held : std::min(k, held))) ++t.short_draws;
      }
      for (const data::Sample& s : step.adds) {
        ++attempted;
        Stopwatch watch;
        const bool stored = engine.add(s.raster, s.label);
        t.add_us.add(watch.elapsed_seconds() * 1e6);
        if (stored) ++t.stored;
      }
    }
    const std::size_t cap = engine.capacity_bytes();
    t.accounted = t.accounted && engine.stream_seen() == attempted &&
                  engine.size() == engine.stream_seen() - engine.evictions() &&
                  (cap == 0 || engine.memory_bytes() <= cap);
  }
  t.wall_s = wall.elapsed_seconds();
  return t;
}

void report_traffic(Report& report, const Traffic& t, const std::string& draw_call) {
  report.check(t.accounted,
               "engine traffic replay: no lost adds, entries == adds - evictions, budget held");
  const std::size_t ops = t.add_us.count() + t.draw_us.count();
  report.attempted(ops);
  report.failed(t.short_draws, "short draws in the engine traffic replay");
  report.metric("core.ops_per_s", static_cast<double>(ops) / t.wall_s, "1/s", ops,
                "engine traffic replay, 1 client: adds + draws per second of the replay");
  report_percentiles(report, "core.add", t.add_us, "us",
                     "ShardedReplayEngine::add (traffic replay)");
  report_percentiles(report, "core.draw", t.draw_us, "us", draw_call + " (traffic replay)");
}

/// What a traced run measures beyond the end-to-end metrics.  Sums cover
/// the traced learning units only.
struct NclTrace {
  double synth_s = 0.0;
  Samples learn_traced;
  double train_s = 0.0;
  double stall_s = 0.0;
  double assemble_s = 0.0;
  double eval_s = 0.0;
  double evals = 0.0;
  double decompress_bits = 0.0;
  bool decompress_bits_repeat = true;
  double adds = 0.0;
  double evictions = 0.0;
  double lock_wait_s = 0.0;
  double shard_skew = 0.0;
  double prefix_s = 0.0;  // bench span totals of the replicas
  double prep_s = 0.0;
  std::optional<snn::SpikeOpStats> ops;  // per unit, where the API exposes it
};

/// The timed phase.  Repeats `unit` (one learning unit on a fresh clone,
/// returning its seconds) untraced until the learn budget — half of it on a
/// traced run — and at least `min_reps` times.  A traced run then arms the
/// registry and the span log for the rest, runs `replicas` after each traced
/// unit with the registry disarmed, and fills `trace` from the registry.
template <typename Unit, typename Replicas>
void timed_units(const RunArgs& args, std::size_t min_reps, std::size_t shards,
                 SpanLog& spans, Unit&& unit, Replicas&& replicas, Samples& learn,
                 NclTrace& trace) {
  const double budget = args.seconds * kLearnShare;
  Stopwatch phase;
  while (learn.count() < min_reps ||
         phase.elapsed_seconds() < (args.trace ? budget / 2 : budget)) {
    learn.add(unit());
  }
  if (!args.trace) return;
  obs::MetricsRegistry& reg = obs::metrics();
  arm_registry();
  double bits_before = 0.0;
  std::optional<double> bits_per_unit;
  while (trace.learn_traced.count() < min_reps || phase.elapsed_seconds() < budget) {
    reg.set_armed(true);
    spans.set_enabled(true);
    trace.learn_traced.add(unit());
    reg.set_armed(false);
    const double bits = obs_count("replay_buffer.decompress_bits");
    if (!bits_per_unit) bits_per_unit = bits - bits_before;
    trace.decompress_bits_repeat = trace.decompress_bits_repeat && bits - bits_before == *bits_per_unit;
    bits_before = bits;
    replicas();
    spans.set_enabled(false);
  }
  trace.train_s = obs_seconds("trainer.epoch_seconds");
  trace.stall_s = obs_seconds("pipeline.stall_seconds");
  trace.assemble_s = obs_seconds("pipeline.assemble_seconds");
  trace.eval_s = obs_seconds("trainer.eval_seconds");
  trace.evals = obs_count("trainer.evals");
  trace.decompress_bits = obs_count("replay_buffer.decompress_bits");
  trace.adds = obs_count("replay_engine.adds");
  trace.evictions = obs_count("replay_buffer.evictions");
  trace.lock_wait_s = obs_seconds("replay_engine.lock_wait_seconds");
  trace.shard_skew = obs_shard_skew(shards);
  trace.prefix_s = spans.total("snn.prefix");
  trace.prep_s = spans.total("core.prep");
}

/// Per-layer metrics of both NCL workloads; times and counts are per
/// learning unit (`unit_name`).
void report_ncl_layers(Report& report, const NclTrace& t, const Samples& setup,
                       const Samples& learn, const Traffic& traffic, const CodecTiming& codec,
                       const std::string& unit_name) {
  const std::size_t n = t.learn_traced.count();
  const double units = static_cast<double>(n);
  const std::string per = " per " + unit_name;
  report.metric("data.synth_s", t.synth_s, "s", 1, "generator + task split (excluded from setup_s)");
  report.metric("snn.pretrain_s", setup.median(), "s", setup.count(),
                "median pre-training train_supervised");
  report.metric("snn.prefix_s", t.prefix_s / units, "s", n,
                "bench span: run_hidden over TS_cl once per epoch" + per);
  report.metric("snn.train_s", t.train_s / units, "s", n, "obs trainer.epoch_seconds" + per);
  report.metric("snn.stall_s", t.stall_s / units, "s", n, "obs pipeline.stall_seconds" + per);
  report.metric("snn.assemble_s", t.assemble_s / units, "s", n,
                "obs pipeline.assemble_seconds" + per);
  if (t.ops) {
    report.metric("snn.synops", static_cast<double>(t.ops->synops), "count", 1,
                  "ClRunResult SpikeOpStats" + per);
    report.metric("snn.backward_synops", static_cast<double>(t.ops->backward_synops), "count",
                  1, "ClRunResult SpikeOpStats" + per);
    report.metric("snn.spikes", static_cast<double>(t.ops->spikes), "count", 1,
                  "ClRunResult SpikeOpStats" + per);
  } else {
    for (const char* name : {"snn.synops", "snn.backward_synops", "snn.spikes"}) {
      report.metric(name, -1.0, "count", 0, "n/a: SequentialRunResult exposes no SpikeOpStats");
    }
  }
  report.metric("metrics.eval_s", t.eval_s / units, "s", n, "obs trainer.eval_seconds" + per);
  report.metric("metrics.evals", t.evals / units, "count", n, "obs trainer.evals" + per);
  report.metric("compress.decompress_bits", t.decompress_bits / units, "bits", n,
                "obs replay_buffer.decompress_bits" + per);
  report.metric("compress.encode_us", codec.encode_us, "us", codec.calls,
                "bench span p50: compress_packed on the run's latents");
  report.metric("compress.decode_us", codec.decode_us, "us", codec.calls,
                "bench span p50: decompress_packed_into on the run's latents");
  report.metric("core.prep_s", t.prep_s / units, "s", n,
                "bench span: TS_replay rescale + prefix + engine adds" + per);
  report.metric("core.adds", t.adds / units, "count", n, "obs replay_engine.adds" + per);
  report.metric("core.evictions", t.evictions / units, "count", n,
                "obs replay_buffer.evictions" + per);
  const std::size_t adds = traffic.add_us.count();
  report.metric("core.admit_ratio",
                static_cast<double>(traffic.stored) / static_cast<double>(adds), "ratio", adds,
                "stored / attempted adds (traffic replay)");
  report.metric("core.add_self_us",
                traffic.add_us.block_median(50.0, kMinP99Samples) - codec.encode_us, "us", adds,
                "add p50 - encode p50 (victim search, locking, bookkeeping)");
  report.metric("core.lock_wait_s", t.lock_wait_s / units, "s", n,
                "obs replay_engine.lock_wait_seconds (adds)" + per);
  report.metric("core.shard_skew", t.shard_skew, "ratio", n,
                "max / mean obs replay_engine.shard<i>.adds");
  report.metric("core.short_draws", static_cast<double>(traffic.short_draws), "count",
                traffic.draw_us.count(), "draws returning fewer than k entries");
  const double untraced = learn.median();
  report.metric("obs.trace_overhead_pct",
                (t.learn_traced.median() - untraced) / untraced * 100.0, "%", n,
                "(traced - untraced) / untraced median learn_s");
  report.metric("obs.coverage_pct",
                (t.train_s + t.eval_s + t.prefix_s + t.prep_s) / t.learn_traced.sum() * 100.0,
                "%", n, "train + eval + prefix + prep time / traced learn_s");
}

std::string trace_path(const RunArgs& args) {
  return args.out_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
}

bool same_result(const core::ClRunResult& a, const core::ClRunResult& b) {
  return a.final_acc_old == b.final_acc_old && a.final_acc_new == b.final_acc_new &&
         a.total_energy_uj() == b.total_energy_uj() &&
         a.latent_memory_bytes == b.latent_memory_bytes;
}

bool same_stream(const core::SequentialRunResult& a, const core::SequentialRunResult& b) {
  if (a.rows.size() != b.rows.size() || a.total_energy_uj != b.total_energy_uj) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const core::SequentialTaskRow& x = a.rows[i];
    const core::SequentialTaskRow& y = b.rows[i];
    if (x.acc_base != y.acc_base || x.acc_learned != y.acc_learned ||
        x.acc_current != y.acc_current || x.latent_memory_bytes != y.latent_memory_bytes ||
        x.buffer_entries != y.buffer_entries || x.buffer_evictions != y.buffer_evictions) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_ncl_single(const RunArgs& args, Report& report) {
  SpanLog spans(args.trace, SpanLog::Clock::now());
  const core::PretrainConfig pc = seeded_config(args.seed);
  NclTrace trace;
  data::ClassIncrementalTasks tasks;
  {
    SpanLog::Scope span(spans, "data.synth");
    Stopwatch watch;
    const data::SyntheticShdGenerator generator(pc.data_params);
    tasks = data::build_class_incremental(generator, pc.split);
    trace.synth_s = watch.elapsed_seconds();
  }
  Samples setup;
  const snn::SnnNetwork base =
      pretrain(pc, tasks.pretrain_train, tasks.pretrain_test, spans, setup, report);
  spans.set_enabled(false);

  core::ClRunConfig cl;
  cl.method = core::bench_replay4ncl(40);
  cl.method.threads = args.threads;
  cl.insertion_layer = 3;
  cl.epochs = 40;
  cl.eval_every = cl.epochs;  // final evaluation (the engine always scores epoch 0 too)
  cl.seed = derive_seed(args.seed, 3);
  const core::NclMethodConfig& method = cl.method;
  const snn::ThresholdPolicy policy = method.policy();
  const data::Dataset new_in =
      data::time_rescale(tasks.new_train, method.cl_timesteps, method.rescale);

  std::optional<core::ClRunResult> first;
  std::optional<snn::SnnNetwork> deployed;
  bool repeatable = true;
  const auto unit = [&] {
    snn::SnnNetwork net = base.clone();
    core::ClRunResult res;
    double seconds = 0.0;
    {
      SpanLog::Scope span(spans, "core.learn");
      Stopwatch watch;
      res = core::run_continual_learning(net, tasks, cl);
      seconds = watch.elapsed_seconds();
    }
    if (!first) {
      first = std::move(res);
    } else {
      repeatable = repeatable && same_result(res, *first);
    }
    deployed.emplace(std::move(net));
    return seconds;
  };
  const auto replicas = [&] {
    {
      SpanLog::Scope span(spans, "snn.prefix");
      for (std::size_t e = 0; e < cl.epochs; ++e) {
        (void)prefix_latents(base, new_in, cl.insertion_layer, policy, method.batch_size);
      }
    }
    SpanLog::Scope span(spans, "core.prep");
    prepare(base, tasks.replay_subset, cl.insertion_layer, method, cl.seed);
  };
  Samples learn;
  timed_units(args, 3, method.replay_sharding.shards, spans, unit, replicas, learn, trace);
  report.check(repeatable,
               "every CL phase repeats bit-identically (accuracies, energy_uj, latent_bytes)");
  const core::ClRunResult& res = *first;

  // Deployed batch-1 inference over the rescaled old- and new-task test sets.
  data::Dataset deploy =
      data::time_rescale(tasks.pretrain_test, method.cl_timesteps, method.rescale);
  for (data::Sample& s : data::time_rescale(tasks.new_test, method.cl_timesteps, method.rescale)) {
    deploy.push_back(std::move(s));
  }
  Samples infer_ms;
  std::vector<std::int32_t> preds;
  bool stable = true;
  std::size_t hits = 0;
  for (std::size_t pass = 0; infer_ms.count() < kMinP99Samples; ++pass) {
    for (std::size_t i = 0; i < deploy.size(); ++i) {
      const Tensor x = data::raster_to_batch(deploy[i].raster);
      Stopwatch watch;
      const Tensor logits = deployed->forward_logits(x, 0, policy);
      infer_ms.add(watch.elapsed_ms());
      const std::int32_t pred = argmax_rows(logits).front();
      if (pass == 0) {
        preds.push_back(pred);
        hits += pred == deploy[i].label ? 1 : 0;
      } else {
        stable = stable && preds[i] == pred;
      }
    }
  }
  report.check(stable, "deployed batch-1 predictions repeat across inference passes");

  report.metric("setup_s", setup.median(), "s", setup.count(),
                "median pre-training (19 classes, 8 epochs)");
  report.metric("learn_s", learn.median(), "s", learn.count(),
                "median run_continual_learning call (40 epochs)");
  report.metric("latent_bytes", static_cast<double>(res.latent_memory_bytes), "B", 1,
                "replay store after the CL phase");
  report.metric("energy_uj", res.total_energy_uj(), "uJ", 1, "modelled energy of one CL phase");
  report.metric("acc_old_pct", 100.0 * res.final_acc_old, "%", tasks.pretrain_test.size(),
                "final_acc_old (printed only)");
  report.metric("acc_new_pct", 100.0 * res.final_acc_new, "%", tasks.new_test.size(),
                "final_acc_new (printed only)");
  report_percentiles(report, "infer", infer_ms, "ms",
                     "batch-1 forward_logits at the deployed configuration (printed only)");
  report.note("deployed batch-1 accuracy " +
              std::to_string(100.0 * static_cast<double>(hits) /
                             static_cast<double>(deploy.size())) +
              "% over " + std::to_string(deploy.size()) + " test samples");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "process peak resident set");
  report.attempted(learn.count() + trace.learn_traced.count() + infer_ms.count());

  if (args.trace) {
    // The CL phase's replay-store traffic: the prepared latents, then one
    // draw per epoch.  With no per-epoch cap and no importance feedback, the
    // trainer's draw is materialize() of the whole store.
    std::vector<TrafficStep> steps(2);
    steps[0].adds = prefix_latents(
        base, data::time_rescale(tasks.replay_subset, method.cl_timesteps, method.rescale),
        cl.insertion_layer, policy, method.batch_size);
    steps[1].draws = cl.epochs;
    const Traffic traffic = replay_traffic(
        args, method, cl.seed, steps,
        [](const core::ShardedReplayEngine& engine, Rng&) { return engine.materialize().size(); });
    report_traffic(report, traffic, "materialize() of the whole store");
    snn::SpikeOpStats ops = res.prep_stats;
    for (const core::ClEpochRow& row : res.rows) ops.add(row.stats);
    trace.ops = ops;
    report_ncl_layers(report, trace, setup, learn, traffic,
                      time_codec(steps[0].adds, method.storage_codec, method.cl_timesteps),
                      "CL phase");
    write_spans(trace_path(args), args, {&spans});
    report.note("span log: " + trace_path(args));
  }
}

void run_ncl_stream(const RunArgs& args, Report& report) {
  SpanLog spans(args.trace, SpanLog::Clock::now());
  const core::PretrainConfig pc = seeded_config(args.seed);
  NclTrace trace;
  data::SequentialTasks tasks;
  {
    SpanLog::Scope span(spans, "data.synth");
    Stopwatch watch;
    const data::SyntheticShdGenerator generator(pc.data_params);
    tasks = data::build_sequential_tasks(generator, pc.split, kStreamTasks);
    trace.synth_s = watch.elapsed_seconds();
  }
  Samples setup;
  const snn::SnnNetwork base =
      pretrain(pc, tasks.pretrain_train, tasks.pretrain_test, spans, setup, report);
  spans.set_enabled(false);

  core::SequentialRunConfig run;
  run.method = core::bench_replay4ncl().with_latent_bits(2);
  run.method.replay_budget.policy = core::ReplayPolicy::kLowImportance;
  run.method.importance_feedback = true;
  run.method.replay_stream = true;
  run.method.prefetch = true;
  run.method.replay_samples_per_epoch = 16;
  run.method.threads = args.threads;
  run.insertion_layer = 2;
  run.epochs_per_task = 8;
  run.replay_per_new_class = pc.split.replay_per_class;
  run.seed = derive_seed(args.seed, 3);
  core::NclMethodConfig& method = run.method;
  const snn::ThresholdPolicy policy = method.policy();

  // One stream's replay-store traffic: base latents, then per task the
  // per-epoch draws and the just-learned class's latents.  The prefix below
  // the insertion layer is frozen, so these are the stream's exact adds; the
  // base latents also size the budget.
  std::vector<TrafficStep> steps(1 + kStreamTasks);
  steps[0].adds = prefix_latents(
      base, data::time_rescale(tasks.replay_subset, method.cl_timesteps, method.rescale),
      run.insertion_layer, policy, method.batch_size);
  std::vector<data::Dataset> task_in;
  for (std::size_t t = 0; t < kStreamTasks; ++t) {
    task_in.push_back(data::time_rescale(tasks.task_train[t], method.cl_timesteps, method.rescale));
    const std::int32_t cls = tasks.task_classes[t];
    steps[t + 1].draws = run.epochs_per_task;
    steps[t + 1].adds = prefix_latents(
        base,
        data::take_per_class(task_in.back(), std::span<const std::int32_t>(&cls, 1),
                             run.replay_per_new_class),
        run.insertion_layer, policy, method.batch_size);
  }
  // The examples/budget_stream default: room for the base latents plus
  // three tasks' recordings, so eviction starts at task 4.
  {
    core::LatentReplayBuffer probe(method.storage_codec, method.cl_timesteps);
    (void)probe.add(steps[0].adds.front().raster, steps[0].adds.front().label);
    method.replay_budget.capacity_bytes =
        probe.memory_bytes() * (tasks.replay_subset.size() + 3 * run.replay_per_new_class);
  }

  const std::size_t base_adds = tasks.replay_subset.size();
  std::optional<core::SequentialRunResult> first;
  bool repeatable = true;
  bool budget_held = true;
  bool accounted = true;
  const auto unit = [&] {
    snn::SnnNetwork net = base.clone();
    core::SequentialRunResult res;
    double seconds = 0.0;
    {
      SpanLog::Scope span(spans, "core.learn");
      Stopwatch watch;
      res = core::run_sequential(net, tasks, run);
      seconds = watch.elapsed_seconds();
    }
    for (const core::SequentialTaskRow& row : res.rows) {
      budget_held = budget_held && row.latent_memory_bytes <= row.budget_bytes;
      accounted = accounted && row.buffer_entries + row.buffer_evictions ==
                                   base_adds + (row.task_index + 1) * run.replay_per_new_class;
    }
    if (!first) {
      first = std::move(res);
    } else {
      repeatable = repeatable && same_stream(res, *first);
    }
    return seconds;
  };
  const auto replicas = [&] {
    {
      SpanLog::Scope span(spans, "snn.prefix");
      for (const data::Dataset& in : task_in) {
        for (std::size_t e = 0; e < run.epochs_per_task; ++e) {
          (void)prefix_latents(base, in, run.insertion_layer, policy, method.batch_size);
        }
      }
    }
    SpanLog::Scope span(spans, "core.prep");
    prepare(base, tasks.replay_subset, run.insertion_layer, method, run.seed);
  };
  Samples learn;
  timed_units(args, 2, method.replay_sharding.shards, spans, unit, replicas, learn, trace);
  const core::SequentialRunResult& res = *first;
  report.check(res.rows.size() == kStreamTasks, "the stream learns all 10 tasks");
  report.check(budget_held, "replay memory within the byte budget after every task");
  report.check(accounted, "entries == adds - evictions after every task");
  report.check(repeatable,
               "every stream repeats bit-identically (accuracies, energy_uj, latent_bytes, "
               "evictions)");
  if (args.trace) {
    report.check(trace.decompress_bits_repeat, "decompress_bits repeat across traced streams");
  }
  for (const core::SequentialTaskRow& row : res.rows) {
    if (row.buffer_evictions > 0) {
      report.note("first eviction at task " + std::to_string(row.task_index + 1) + " of " +
                  std::to_string(kStreamTasks) + "; budget " +
                  std::to_string(method.replay_budget.capacity_bytes) + " B");
      break;
    }
  }

  const core::SequentialTaskRow& last = res.rows.back();
  report.metric("setup_s", setup.median(), "s", setup.count(),
                "median pre-training (10 base classes, 8 epochs)");
  report.metric("learn_s", learn.median(), "s", learn.count(),
                "median run_sequential call (10 tasks x 8 epochs)");
  report.metric("latent_bytes", static_cast<double>(last.latent_memory_bytes), "B", 1,
                "replay store after the last task");
  report.metric("energy_uj", res.total_energy_uj, "uJ", 1, "modelled energy of the stream");
  report.metric("acc_old_pct", 100.0 * last.acc_base, "%", tasks.pretrain_test.size(),
                "last row acc_base (printed only)");
  report.metric("acc_new_pct", 100.0 * last.acc_learned, "%", kStreamTasks,
                "last row acc_learned (printed only)");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "process peak resident set");
  report.attempted(learn.count() + trace.learn_traced.count());

  if (args.trace) {
    // The stream's per-epoch draw: a streamed draw whose entries the batch
    // assembly decodes one by one, then one report_outcome per drawn entry
    // (importance feedback).  Seeded outcomes stand in for the trainer's
    // per-sample errors.
    Rng outcomes(derive_seed(args.seed, 7));
    const Traffic traffic = replay_traffic(
        args, method, run.seed, steps, [&](core::ShardedReplayEngine& engine, Rng& rng) {
          core::ReplayStream stream =
              engine.stream(method.replay_samples_per_epoch, rng, method.batch_size);
          for (std::size_t i = 0; i < stream.size(); ++i) (void)stream.fetch(i);
          for (const std::size_t index : stream.drawn()) {
            engine.report_outcome(index, outcomes.bernoulli(0.25) ? 1.0f : 0.0f);
          }
          return stream.size();
        });
    report_traffic(report, traffic,
                   "stream(16), a fetch of every entry, report_outcome per drawn entry");
    report_ncl_layers(report, trace, setup, learn, traffic,
                      time_codec(steps[0].adds, method.storage_codec, method.cl_timesteps),
                      "stream");
    write_spans(trace_path(args), args, {&spans});
    report.note("span log: " + trace_path(args));
  }
}

}  // namespace perfbench
