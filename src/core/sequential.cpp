#include "core/sequential.hpp"

#include <optional>

#include "core/checkpoint.hpp"
#include "core/latent_source.hpp"
#include "core/replay_stream.hpp"
#include "core/sharded_engine.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {

SequentialRunResult run_sequential(snn::SnnNetwork& net, const data::SequentialTasks& tasks,
                                   const SequentialRunConfig& config) {
  return run_sequential(net, tasks, config, CheckpointOptions{});
}

SequentialRunResult run_sequential(snn::SnnNetwork& net, const data::SequentialTasks& tasks,
                                   const SequentialRunConfig& config,
                                   const CheckpointOptions& ckpt) {
  const NclMethodConfig& method = config.method;
  R4NCL_CHECK(!tasks.task_classes.empty(), "no tasks to learn");
  R4NCL_CHECK(config.insertion_layer <= net.num_hidden(), "insertion layer out of range");
  R4NCL_CHECK(config.epochs_per_task > 0, "need at least one epoch per task");
  R4NCL_CHECK(ckpt.every >= 1, "checkpoint_every must be >= 1");
  if (method.threads > 0) set_num_threads(method.threads);

  const metrics::EnergyModel energy_model(config.energy_params);
  const metrics::LatencyModel latency_model(config.latency_params);
  const snn::ThresholdPolicy policy = method.policy();

  SequentialRunResult result;
  result.method_name = method.name;

  // Base-class latents seed the buffer (Alg. 1 network preparation).  An
  // active schedule binds from construction — seeding already runs under the
  // task-0 cap, exactly as in run_continual_learning, so preparation never
  // transiently exceeds the scheduled region.  The task-0 boundary
  // set_capacity below is then a no-op.
  ReplayBufferConfig run_budget = method.replay_budget.with_run_seed(config.seed);
  if (method.budget_schedule.active()) {
    run_budget.capacity_bytes = method.budget_schedule.capacity_for_task(
        0, tasks.task_classes.size(), run_budget.capacity_bytes);
  }
  // The replay store is a ShardedReplayEngine; shards=1 (the default) is
  // bit-identical to the LatentReplayBuffer this engine refactored out, so
  // unsharded runs reproduce the pre-engine results byte for byte.
  ShardedReplayEngine buffer(method.storage_codec, method.cl_timesteps, run_budget,
                             method.replay_sharding);
  const CheckpointMeta meta =
      make_checkpoint_meta(CheckpointKind::kSequential, method, config.insertion_layer,
                           config.seed, tasks.task_classes.size());
  Rng seed_rng(config.seed);
  Rng replay_rng(config.seed ^ kReplayDrawSeedSalt);
  std::size_t first_task = 0;
  if (ckpt.resuming()) {
    // A resumed run replaces the seeding phase entirely: the restored engine
    // already holds the seeded (and since-evolved) latents, the restored
    // totals already include the prep charge, and the restored rng streams
    // put every subsequent draw exactly where the killed run left it.
    const Checkpoint loaded =
        load_checkpoint(ckpt.resume_path, meta, net, nullptr, buffer);
    result.rows = loaded.seq_rows;
    result.total_latency_ms = loaded.seq_total_latency_ms;
    result.total_energy_uj = loaded.seq_total_energy_uj;
    seed_rng.restore(loaded.unit_rng);
    replay_rng.restore(loaded.replay_rng);
    first_task = static_cast<std::size_t>(loaded.meta.next_unit);
  } else {
    const data::Dataset rescaled =
        data::time_rescale(tasks.replay_subset, method.cl_timesteps, method.rescale);
    PackedLatentSet latents(net, rescaled, config.insertion_layer, policy, method.batch_size);
    for (std::size_t i = 0; i < latents.size(); ++i) {
      const data::Sample& s = latents.fetch(i);
      buffer.add(s.raster, s.label);
    }
    result.total_latency_ms += latency_model.latency_ms(latents.prefix_stats());
    result.total_energy_uj += energy_model.energy_uj(latents.prefix_stats());
  }

  // Evaluation memos: the base test set and every task's test set, each in
  // the deployment configuration (Sec. IV) and at the evaluation blocking.
  // The prefix stays frozen for the whole stream, so one pass per set serves
  // every task's evaluation.  The sets borrow their datasets at insertion 0,
  // so the rescaled datasets live as long.
  const metrics::EvalSettings eval{.timesteps = method.cl_timesteps,
                                   .rescale = method.rescale,
                                   .policy = policy};
  std::vector<data::Dataset> tests;
  tests.reserve(1 + tasks.task_test.size());
  tests.push_back(data::time_rescale(tasks.pretrain_test, eval.timesteps, eval.rescale));
  for (const data::Dataset& test : tasks.task_test) {
    tests.push_back(data::time_rescale(test, eval.timesteps, eval.rescale));
  }
  std::vector<PackedLatentSet> test_latents;
  test_latents.reserve(tests.size());
  for (const data::Dataset& test : tests) {
    test_latents.emplace_back(net, test, config.insertion_layer, eval.policy, eval.batch_size);
  }
  const auto accuracy = [&](PackedLatentSet& test) {
    return snn::evaluate(net, test.source(), config.insertion_layer, eval.policy,
                         eval.batch_size);
  };

  const bool importance_feedback =
      method.importance_feedback && is_importance_policy(method.replay_budget.policy);
  std::size_t completed_here = 0;
  for (std::size_t task = first_task; task < tasks.task_classes.size(); ++task) {
    obs::metrics().counter("core.tasks").add(1);
    obs::TraceSpan task_span(obs::metrics(), "core.task_seconds");
    SequentialTaskRow row;
    row.task_index = task;
    row.class_id = tasks.task_classes[task];
    snn::SpikeOpStats task_stats;

    // Task boundary: re-apply the byte-budget schedule before this task's CL
    // phase; a shrink re-evicts deterministically per the buffer's policy.
    // The default const schedule never calls set_capacity, so unscheduled
    // runs stay bit-identical.
    if (method.budget_schedule.active()) {
      buffer.set_capacity(method.budget_schedule.capacity_for_task(
          task, tasks.task_classes.size(), method.replay_budget.capacity_bytes));
    }

    const data::Dataset new_rescaled = data::time_rescale(
        tasks.task_train[task], method.cl_timesteps, method.rescale);
    PackedLatentSet new_latents(net, new_rescaled, config.insertion_layer, policy,
                                method.batch_size);

    // CL phase for this task (Alg. 1 lines 21–33 against the current buffer).
    snn::AdamOptimizer optimizer;
    for (std::size_t epoch = 0; epoch < config.epochs_per_task; ++epoch) {
      // The device reruns the prefix for A_new every epoch (line 23).
      task_stats.add(new_latents.prefix_stats());
      snn::TrainOptions opts;
      opts.epochs = 1;
      opts.batch_size = method.batch_size;
      opts.lr = method.lr_cl;
      opts.insertion_layer = config.insertion_layer;
      opts.policy = policy;
      opts.shuffle_seed = seed_rng();
      opts.prefetch = method.prefetch ? 1 : 0;
      // A_LR: the same draw (same Rng stream) streamed one batch at a time,
      // or decoded up front; see run_continual_learning.
      const std::size_t new_count = new_latents.size();
      const std::size_t draw = method.replay_samples_per_epoch > 0
                                   ? method.replay_samples_per_epoch
                                   : buffer.size();
      std::optional<ReplayStream> stream;
      data::Dataset replay;
      std::vector<std::size_t> drawn;
      if (method.replay_stream) {
        stream.emplace(buffer.stream(draw, replay_rng, method.batch_size, &task_stats));
        drawn = stream->drawn();
      } else if (importance_feedback || method.replay_samples_per_epoch > 0) {
        drawn = buffer.sample_into(draw, replay_rng, replay, &task_stats);
      } else {
        replay = buffer.materialize(&task_stats);
      }
      if (importance_feedback) opts.sample_outcome = buffer.outcome_hook(drawn, new_count);
      snn::SampleSource source;
      source.size = new_count + (stream ? stream->size() : replay.size());
      source.fetch = [&](std::size_t i) -> const data::Sample& {
        if (i < new_count) return new_latents.fetch(i);
        return stream ? stream->fetch(i - new_count) : replay[i - new_count];
      };
      task_stats.add(snn::train_supervised(net, source, optimizer, opts).front().stats);
    }

    // Record the just-learned class into the buffer (on-device latents).
    {
      const data::Dataset keep = data::take_per_class(
          new_rescaled, std::span<const std::int32_t>(&row.class_id, 1),
          config.replay_per_new_class);
      PackedLatentSet latents(net, keep, config.insertion_layer, policy, method.batch_size);
      task_stats.add(latents.prefix_stats());
      for (std::size_t i = 0; i < latents.size(); ++i) {
        const data::Sample& s = latents.fetch(i);
        buffer.add(s.raster, s.label);
      }
    }
    row.latent_memory_bytes = buffer.memory_bytes();
    row.budget_bytes = buffer.capacity_bytes();
    row.buffer_entries = buffer.size();
    row.buffer_evictions = buffer.evictions();
    row.latency_ms = latency_model.latency_ms(task_stats);
    row.energy_uj = energy_model.energy_uj(task_stats);
    result.total_latency_ms += row.latency_ms;
    result.total_energy_uj += row.energy_uj;

    // Evaluation: base classes + every task seen so far.
    row.acc_base = accuracy(test_latents.front());
    double learned_sum = 0.0;
    for (std::size_t seen = 0; seen <= task; ++seen) {
      const double acc = accuracy(test_latents[1 + seen]);
      learned_sum += acc;
      if (seen == task) row.acc_current = acc;
    }
    row.acc_learned = learned_sum / static_cast<double>(task + 1);
    if (config.verbose) {
      R4NCL_INFO(method.name << " task " << task << " (class " << row.class_id
                             << "): base=" << row.acc_base << " learned=" << row.acc_learned
                             << " mem=" << row.latent_memory_bytes << "B");
    }
    result.rows.push_back(row);

    // Task boundary: snapshot and/or power down.  stop_after_units is the
    // kill/resume drill — force a save and return the partial result so a
    // fresh process can resume= from here and finish bit-identically.
    ++completed_here;
    const std::size_t done = task + 1;
    const bool finished = done == tasks.task_classes.size();
    const bool stopping =
        ckpt.stop_after_units > 0 && completed_here >= ckpt.stop_after_units && !finished;
    if (ckpt.saving() && (finished || stopping || done % ckpt.every == 0)) {
      Checkpoint ck;
      ck.meta = meta;
      ck.meta.next_unit = done;
      ck.unit_rng = seed_rng.state();
      ck.replay_rng = replay_rng.state();
      ck.seq_rows = result.rows;
      ck.seq_total_latency_ms = result.total_latency_ms;
      ck.seq_total_energy_uj = result.total_energy_uj;
      // Per-task Adam state dies at the boundary anyway, so nothing to save.
      save_checkpoint(ckpt.save_path, ck, net, nullptr, buffer);
    }
    if (stopping) return result;
  }
  return result;
}

}  // namespace r4ncl::core
