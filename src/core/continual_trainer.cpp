#include "core/continual_trainer.hpp"

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
#include "util/stopwatch.hpp"

namespace r4ncl::core {

double ClRunResult::total_latency_ms() const noexcept {
  double total = prep_latency_ms;
  for (const auto& r : rows) total += r.latency_ms;
  return total;
}

double ClRunResult::total_energy_uj() const noexcept {
  double total = prep_energy_uj;
  for (const auto& r : rows) total += r.energy_uj;
  return total;
}

ClRunResult run_continual_learning(snn::SnnNetwork& net,
                                   const data::ClassIncrementalTasks& tasks,
                                   const ClRunConfig& config) {
  return run_continual_learning(net, tasks, config, CheckpointOptions{});
}

ClRunResult run_continual_learning(snn::SnnNetwork& net,
                                   const data::ClassIncrementalTasks& tasks,
                                   const ClRunConfig& config, const CheckpointOptions& ckpt) {
  const NclMethodConfig& method = config.method;
  R4NCL_CHECK(config.insertion_layer <= net.num_hidden(),
              "insertion layer " << config.insertion_layer << " out of range");
  R4NCL_CHECK(config.epochs > 0, "need at least one epoch");
  R4NCL_CHECK(config.eval_every > 0, "eval_every must be positive");
  R4NCL_CHECK(ckpt.every >= 1, "checkpoint_every must be >= 1");
  if (method.threads > 0) set_num_threads(method.threads);

  Stopwatch total_watch;
  const metrics::EnergyModel energy_model(config.energy_params);
  const metrics::LatencyModel latency_model(config.latency_params);
  const snn::ThresholdPolicy policy = method.policy();

  ClRunResult result;
  result.method_name = method.name;
  result.insertion_layer = config.insertion_layer;

  // ---- Phase 1: network preparation (Alg. 1 lines 6–20) -----------------
  // A budget schedule sees this engine as a 1-task stream: the task-0
  // capacity applies from preparation on.  The default const schedule leaves
  // capacity_bytes untouched, so unscheduled runs stay bit-identical.
  ReplayBufferConfig run_budget = method.replay_budget.with_run_seed(config.seed);
  if (method.budget_schedule.active()) {
    run_budget.capacity_bytes =
        method.budget_schedule.capacity_for_task(0, 1, run_budget.capacity_bytes);
  }
  // The replay store is a ShardedReplayEngine; shards=1 (the default) is
  // bit-identical to the LatentReplayBuffer this engine refactored out, so
  // unsharded runs reproduce the pre-engine results byte for byte.
  ShardedReplayEngine buffer(method.storage_codec, method.cl_timesteps, run_budget,
                             method.replay_sharding);
  const bool importance_feedback = method.use_replay && method.importance_feedback &&
                                   is_importance_policy(method.replay_budget.policy);
  const CheckpointMeta meta = make_checkpoint_meta(
      CheckpointKind::kContinual, method, config.insertion_layer, config.seed, config.epochs);
  snn::AdamOptimizer optimizer;
  Rng epoch_rng(config.seed);
  Rng replay_rng(config.seed ^ kReplayDrawSeedSalt);
  std::size_t first_epoch = 0;
  double prior_wall_seconds = 0.0;
  if (ckpt.resuming()) {
    // A resumed run replaces the preparation phase: the restored engine
    // already holds the prepared latents, prep costs live in the restored
    // result fields, and the run-long optimizer + rng streams continue
    // exactly where the killed run left them.
    Checkpoint loaded = load_checkpoint(ckpt.resume_path, meta, net, &optimizer, buffer);
    result.rows = std::move(loaded.cl_rows);
    result.prep_stats = loaded.prep_stats;
    result.prep_latency_ms = loaded.prep_latency_ms;
    result.prep_energy_uj = loaded.prep_energy_uj;
    result.latent_memory_bytes = static_cast<std::size_t>(loaded.latent_memory_bytes);
    result.final_acc_old = loaded.final_acc_old;
    result.final_acc_new = loaded.final_acc_new;
    prior_wall_seconds = loaded.total_wall_seconds;
    epoch_rng.restore(loaded.unit_rng);
    replay_rng.restore(loaded.replay_rng);
    first_epoch = static_cast<std::size_t>(loaded.meta.next_unit);
  } else if (method.use_replay) {
    const data::Dataset replay_rescaled =
        data::time_rescale(tasks.replay_subset, method.cl_timesteps, method.rescale);
    PackedLatentSet latents(net, replay_rescaled, config.insertion_layer, policy,
                            method.batch_size);
    result.prep_stats.add(latents.prefix_stats());
    for (std::size_t i = 0; i < latents.size(); ++i) {
      const data::Sample& s = latents.fetch(i);
      buffer.add(s.raster, s.label);
    }
    result.latent_memory_bytes = buffer.memory_bytes();
  }
  if (!ckpt.resuming()) {
    result.prep_latency_ms = latency_model.latency_ms(result.prep_stats);
    result.prep_energy_uj = energy_model.energy_uj(result.prep_stats);
  }

  // The frozen-prefix memos of this run: A_new = inference(net_f, TS_cl)
  // (Alg. 1 line 23) at the training blocking, and both test sets in the
  // deployment configuration (Sec. IV: the method's own timestep and
  // threshold behaviour) at the evaluation blocking.  The sets borrow their
  // datasets at insertion 0, so the rescaled datasets live as long.
  const metrics::EvalSettings eval{.timesteps = method.cl_timesteps,
                                   .rescale = method.rescale,
                                   .policy = policy};
  const data::Dataset new_train_rescaled =
      data::time_rescale(tasks.new_train, method.cl_timesteps, method.rescale);
  const data::Dataset old_test =
      data::time_rescale(tasks.pretrain_test, eval.timesteps, eval.rescale);
  const data::Dataset new_test = data::time_rescale(tasks.new_test, eval.timesteps, eval.rescale);
  PackedLatentSet new_latents(net, new_train_rescaled, config.insertion_layer, policy,
                              method.batch_size);
  PackedLatentSet old_eval(net, old_test, config.insertion_layer, eval.policy, eval.batch_size);
  PackedLatentSet new_eval(net, new_test, config.insertion_layer, eval.policy, eval.batch_size);

  // ---- Phase 2: NCL training (Alg. 1 lines 21–33) ------------------------
  result.rows.reserve(config.epochs);
  std::size_t completed_here = 0;
  for (std::size_t epoch = first_epoch; epoch < config.epochs; ++epoch) {
    obs::metrics().counter("core.cl_epochs").add(1);
    obs::TraceSpan epoch_span(obs::metrics(), "core.cl_epoch_seconds");
    Stopwatch epoch_watch;
    ClEpochRow row;
    row.epoch = epoch;

    // Train the learning layers on A_new ∪ A_LR (Alg. 1 line 31).  The
    // device reruns the prefix for A_new every epoch (line 23), so every
    // epoch is charged the memo's prefix pass.
    row.stats.add(new_latents.prefix_stats());
    snn::TrainOptions opts;
    opts.epochs = 1;
    opts.batch_size = method.batch_size;
    opts.lr = method.lr_cl;
    opts.insertion_layer = config.insertion_layer;
    opts.policy = policy;
    opts.shuffle_seed = epoch_rng();
    opts.prefetch = method.prefetch ? 1 : 0;
    // A_LR from the buffer (decompression charged to this epoch).  A
    // streaming cursor makes the same draw from the same Rng as sample_into
    // (bit-identical entry sets and training batches), but decodes each
    // drawn raster only when the shuffled batch assembly reaches it.  When
    // the method caps its per-epoch replay appetite, or feeds outcomes back,
    // only the drawn entries are decompressed — the budgeted-stream hot path.
    const std::size_t new_count = new_latents.size();
    const std::size_t draw = method.replay_samples_per_epoch > 0
                                 ? method.replay_samples_per_epoch
                                 : buffer.size();
    std::optional<ReplayStream> stream;
    data::Dataset replay;
    std::vector<std::size_t> drawn;
    if (method.use_replay && method.replay_stream) {
      stream.emplace(buffer.stream(draw, replay_rng, method.batch_size, &row.stats));
      drawn = stream->drawn();
    } else if (importance_feedback || (method.use_replay && method.replay_samples_per_epoch > 0)) {
      drawn = buffer.sample_into(draw, replay_rng, replay, &row.stats);
    } else if (method.use_replay) {
      replay = buffer.materialize(&row.stats);
    }
    if (importance_feedback) opts.sample_outcome = buffer.outcome_hook(drawn, new_count);
    snn::SampleSource source;
    source.size = new_count + (stream ? stream->size() : replay.size());
    source.fetch = [&](std::size_t i) -> const data::Sample& {
      if (i < new_count) return new_latents.fetch(i);
      return stream ? stream->fetch(i - new_count) : replay[i - new_count];
    };
    const std::vector<snn::EpochRecord> history =
        snn::train_supervised(net, source, optimizer, opts);
    row.loss = history.front().loss;
    row.stats.add(history.front().stats);

    row.latency_ms = latency_model.latency_ms(row.stats);
    row.energy_uj = energy_model.energy_uj(row.stats);

    const bool evaluate_now =
        (epoch % config.eval_every == 0) || (epoch + 1 == config.epochs);
    if (evaluate_now) {
      row.acc_old = snn::evaluate(net, old_eval.source(), config.insertion_layer, eval.policy,
                                  eval.batch_size);
      row.acc_new = snn::evaluate(net, new_eval.source(), config.insertion_layer, eval.policy,
                                  eval.batch_size);
      result.final_acc_old = row.acc_old;
      result.final_acc_new = row.acc_new;
    }
    row.wall_seconds = epoch_watch.elapsed_seconds();
    if (config.verbose) {
      R4NCL_INFO(method.name << " L" << config.insertion_layer << " epoch " << epoch
                             << ": loss=" << row.loss << " old=" << row.acc_old
                             << " new=" << row.acc_new << " (" << row.wall_seconds << "s)");
    }
    result.rows.push_back(std::move(row));

    // Epoch boundary: snapshot and/or power down (see run_sequential; units
    // here are epochs, and the run-long Adam moments ride along).
    ++completed_here;
    const std::size_t done = epoch + 1;
    const bool finished = done == config.epochs;
    const bool stopping =
        ckpt.stop_after_units > 0 && completed_here >= ckpt.stop_after_units && !finished;
    if (ckpt.saving() && (finished || stopping || done % ckpt.every == 0)) {
      Checkpoint ck;
      ck.meta = meta;
      ck.meta.next_unit = done;
      ck.unit_rng = epoch_rng.state();
      ck.replay_rng = replay_rng.state();
      ck.cl_rows = result.rows;
      ck.prep_stats = result.prep_stats;
      ck.prep_latency_ms = result.prep_latency_ms;
      ck.prep_energy_uj = result.prep_energy_uj;
      ck.latent_memory_bytes = result.latent_memory_bytes;
      ck.final_acc_old = result.final_acc_old;
      ck.final_acc_new = result.final_acc_new;
      ck.total_wall_seconds = prior_wall_seconds + total_watch.elapsed_seconds();
      save_checkpoint(ckpt.save_path, ck, net, &optimizer, buffer);
    }
    if (stopping) {
      result.total_wall_seconds = prior_wall_seconds + total_watch.elapsed_seconds();
      return result;
    }
  }
  result.total_wall_seconds = prior_wall_seconds + total_watch.elapsed_seconds();
  return result;
}

}  // namespace r4ncl::core
