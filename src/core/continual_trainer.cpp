// Both run engines: run_continual_learning (one new-class CL phase) and
// run_sequential (a stream of them).  They share one ReplayRun, so Alg. 1's
// preparation, its CL epoch and the checkpoint resume/save steps exist once.
#include "core/continual_trainer.hpp"

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/latent_source.hpp"
#include "core/replay_stream.hpp"
#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "metrics/cost_model.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {

namespace {

/// The run's replay budget at task 0 of a `tasks`-task stream: an active
/// schedule binds from construction, so preparation never exceeds the
/// scheduled region.  The default const schedule leaves capacity_bytes
/// untouched, so unscheduled runs stay bit-identical.
ReplayBufferConfig task0_budget(const NclMethodConfig& method, std::uint64_t seed,
                                std::size_t tasks) {
  ReplayBufferConfig budget = method.replay_budget.with_run_seed(seed);
  if (method.budget_schedule.active()) {
    budget.capacity_bytes =
        method.budget_schedule.capacity_for_task(0, tasks, budget.capacity_bytes);
  }
  return budget;
}

/// A test set in the deployment configuration (Sec. IV: the method's own
/// timestep and threshold behaviour), as latents at `insertion` built at the
/// evaluation blocking.
data::Dataset eval_latents(const snn::SnnNetwork& net, const data::Dataset& test,
                           std::size_t insertion, const metrics::EvalSettings& eval) {
  return frozen_latents(net, data::time_rescale(test, eval.timesteps, eval.rescale), insertion,
                        eval.policy, eval.batch_size, nullptr);
}

/// What both run engines share over one run: the replay store, the run's
/// shuffle and replay-draw Rng streams, and the Alg. 1 steps over them.  A
/// method without replay stores nothing, so its epochs draw nothing and
/// report no outcomes; `replay_` is the one place that is decided.
class ReplayRun {
 public:
  /// `tasks` sizes the budget schedule (run_continual_learning is a 1-task
  /// stream); the run has `units` units (epochs or tasks), and its
  /// checkpoints carry `fingerprint`.
  ReplayRun(const NclMethodConfig& method, std::size_t insertion, std::uint64_t seed,
            std::size_t tasks, std::size_t units, RunFingerprint fingerprint)
      : method_(method),
        insertion_(insertion),
        policy_(method.policy()),
        replay_(method.use_replay),
        feedback_(replay_ && method.importance_feedback &&
                  is_importance_policy(method.replay_budget.policy)),
        engine_(method.storage_codec, method.cl_timesteps, task0_budget(method, seed, tasks),
                method.replay_sharding),
        units_(units),
        fingerprint_(std::move(fingerprint)),
        unit_rng_(seed),
        replay_rng_(seed ^ kReplayDrawSeedSalt) {}

  [[nodiscard]] ShardedReplayEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const snn::ThresholdPolicy& policy() const noexcept { return policy_; }

  /// Runs the frozen prefix over `dataset` (already rescaled) and stores
  /// every latent: the preparation of Alg. 1 lines 6–20, and run_sequential's
  /// recording of each learned class.  Returns the prefix work.
  snn::SpikeOpStats record(const snn::SnnNetwork& net, data::Dataset dataset) {
    snn::SpikeOpStats prefix;
    if (!replay_) return prefix;
    for (const data::Sample& s : frozen_latents(net, std::move(dataset), insertion_, policy_,
                                                method_.batch_size, &prefix)) {
      engine_.add(s.raster, s.label);
    }
    return prefix;
  }

  /// One CL epoch (Alg. 1 lines 23–31): trains the learning layers on
  /// A_new ∪ A_LR and adds the epoch's work to `stats`.  `new_prefix` is the
  /// work of the one prefix pass that built `new_latents`.  Returns the loss.
  double epoch(snn::SnnNetwork& net, const data::Dataset& new_latents,
               const snn::SpikeOpStats& new_prefix, snn::AdamOptimizer& optimizer,
               snn::SpikeOpStats& stats) {
    // The device reruns the prefix for A_new every epoch (line 23), so every
    // epoch is charged the memo's prefix pass.
    stats.add(new_prefix);
    snn::TrainOptions opts;
    opts.epochs = 1;
    opts.batch_size = method_.batch_size;
    opts.lr = method_.lr_cl;
    opts.insertion_layer = insertion_;
    opts.policy = policy_;
    opts.shuffle_seed = unit_rng_();
    // A_LR: the epoch's draw (the whole store when the method sets no draw
    // size), each raster decoded only when the shuffled batch assembly
    // reaches it, with its decompression charged to this epoch.
    const std::size_t draw = method_.replay_samples_per_epoch > 0
                                 ? method_.replay_samples_per_epoch
                                 : engine_.size();
    ReplayStream replay = engine_.stream(draw, replay_rng_, method_.batch_size, &stats);
    const std::size_t new_count = new_latents.size();
    if (feedback_) {
      // Training-set indices >= new_count are replay rows; each one's top-1
      // error goes back to the entry it was drawn from.
      opts.sample_outcome = [&](std::size_t i, float error) {
        if (i >= new_count) engine_.report_outcome(replay.drawn()[i - new_count], error);
      };
    }
    snn::SampleSource source;
    source.size = new_count + replay.size();
    source.fetch = [&](std::size_t i) -> const data::Sample& {
      return i < new_count ? new_latents[i] : replay.fetch(i - new_count);
    };
    const snn::EpochRecord record = snn::train_supervised(net, source, optimizer, opts).front();
    stats.add(record.stats);
    return record.loss;
  }

  /// Resumes the run in place of its preparation: restores the network, the
  /// optimizer (when given), the store and both Rng streams from `path`, and
  /// returns the checkpoint's carried state.
  Checkpoint resume(const std::string& path, snn::SnnNetwork& net,
                    snn::AdamOptimizer* optimizer) {
    Checkpoint loaded = load_checkpoint(path, fingerprint_, net, optimizer, engine_);
    unit_rng_.restore(loaded.unit_rng);
    replay_rng_.restore(loaded.replay_rng);
    return loaded;
  }

  /// The unit boundary after `done` units, `completed_here` of them in this
  /// process.  Saves a checkpoint when the cadence, the end of the run or a
  /// stop asks for one (`payload` adds the engine's result so far), and
  /// returns whether the run stops here: the stop_after_units drill, after
  /// which a fresh process resume=s and finishes bit-identically.
  bool end_unit(const CheckpointOptions& ckpt, std::size_t done, std::size_t completed_here,
                const snn::SnnNetwork& net, const snn::AdamOptimizer* optimizer,
                const std::function<void(Checkpoint&)>& payload) const {
    const bool finished = done == units_;
    const bool stopping =
        ckpt.stop_after_units > 0 && completed_here >= ckpt.stop_after_units && !finished;
    if (ckpt.saving() && (finished || stopping || done % ckpt.every == 0)) {
      Checkpoint ck;
      ck.meta = {fingerprint_, done};
      ck.unit_rng = unit_rng_.state();
      ck.replay_rng = replay_rng_.state();
      payload(ck);
      save_checkpoint(ckpt.save_path, ck, net, optimizer, engine_);
    }
    return stopping;
  }

 private:
  const NclMethodConfig& method_;
  std::size_t insertion_;
  snn::ThresholdPolicy policy_;
  bool replay_;
  bool feedback_;
  ShardedReplayEngine engine_;
  std::size_t units_;
  RunFingerprint fingerprint_;
  Rng unit_rng_;
  Rng replay_rng_;
};

}  // namespace

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
                                   const ClRunConfig& config, const CheckpointOptions& ckpt) {
  const NclMethodConfig& method = config.method;
  R4NCL_CHECK(config.insertion_layer <= net.num_hidden(),
              "insertion layer " << config.insertion_layer << " out of range");
  R4NCL_CHECK(config.epochs > 0, "need at least one epoch");
  R4NCL_CHECK(config.eval_every > 0, "eval_every must be positive");
  R4NCL_CHECK(ckpt.every >= 1, "checkpoint_every must be >= 1");
  if (method.threads > 0) set_num_threads(method.threads);

  const metrics::EnergyModel energy_model{};
  const metrics::LatencyModel latency_model{};

  ClRunResult result;

  // ---- Phase 1: network preparation (Alg. 1 lines 6–20) -----------------
  ReplayRun run(method, config.insertion_layer, config.seed, 1, config.epochs,
                run_fingerprint(config, tasks));
  snn::AdamOptimizer optimizer;
  std::size_t first_epoch = 0;
  if (ckpt.resuming()) {
    // The restored engine already holds the prepared latents, prep costs
    // live in the restored result, and the run-long optimizer + rng streams
    // continue exactly where the killed run left them.
    Checkpoint loaded = run.resume(ckpt.resume_path, net, &optimizer);
    result = std::move(loaded.continual);
    first_epoch = static_cast<std::size_t>(loaded.meta.next_unit);
  } else {
    result.prep_stats = run.record(
        net, data::time_rescale(tasks.replay_subset, method.cl_timesteps, method.rescale));
    result.latent_memory_bytes = run.engine().memory_bytes();
    result.prep_latency_ms = latency_model.latency_ms(result.prep_stats);
    result.prep_energy_uj = energy_model.energy_uj(result.prep_stats);
  }
  result.method_name = method.name;
  result.insertion_layer = config.insertion_layer;

  // The frozen-prefix memos of this run: A_new = inference(net_f, TS_cl)
  // (Alg. 1 line 23) at the training blocking, and both test sets.
  const metrics::EvalSettings eval{.timesteps = method.cl_timesteps,
                                   .rescale = method.rescale,
                                   .policy = run.policy()};
  snn::SpikeOpStats new_prefix;
  const data::Dataset new_latents = frozen_latents(
      net, data::time_rescale(tasks.new_train, method.cl_timesteps, method.rescale),
      config.insertion_layer, run.policy(), method.batch_size, &new_prefix);
  const data::Dataset old_eval =
      eval_latents(net, tasks.pretrain_test, config.insertion_layer, eval);
  const data::Dataset new_eval = eval_latents(net, tasks.new_test, config.insertion_layer, eval);

  // ---- Phase 2: NCL training (Alg. 1 lines 21–33) ------------------------
  result.rows.reserve(config.epochs);
  for (std::size_t epoch = first_epoch; epoch < config.epochs; ++epoch) {
    obs::metrics().counter("core.cl_epochs").add(1);
    obs::TraceSpan epoch_span(obs::metrics(), "core.cl_epoch_seconds");
    ClEpochRow row;
    row.epoch = epoch;
    row.loss = run.epoch(net, new_latents, new_prefix, optimizer, row.stats);
    row.latency_ms = latency_model.latency_ms(row.stats);
    row.energy_uj = energy_model.energy_uj(row.stats);

    const bool evaluate_now =
        (epoch % config.eval_every == 0) || (epoch + 1 == config.epochs);
    if (evaluate_now) {
      row.acc_old =
          snn::evaluate(net, old_eval, config.insertion_layer, eval.policy, eval.batch_size);
      row.acc_new =
          snn::evaluate(net, new_eval, config.insertion_layer, eval.policy, eval.batch_size);
      result.final_acc_old = row.acc_old;
      result.final_acc_new = row.acc_new;
    }
    if (config.verbose) {
      R4NCL_INFO(method.name << " L" << config.insertion_layer << " epoch " << epoch
                             << ": loss=" << row.loss << " old=" << row.acc_old
                             << " new=" << row.acc_new);
    }
    result.rows.push_back(std::move(row));

    // Epoch boundary; the run-long Adam moments ride along.
    const bool stopping =
        run.end_unit(ckpt, epoch + 1, epoch + 1 - first_epoch, net, &optimizer,
                     [&](Checkpoint& ck) { ck.continual = result; });
    if (stopping) break;
  }
  return result;
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

  const metrics::EnergyModel energy_model{};
  const metrics::LatencyModel latency_model{};
  const std::size_t num_tasks = tasks.task_classes.size();

  SequentialRunResult result;

  // Base-class latents seed the store (Alg. 1 network preparation) under the
  // task-0 cap, so the task-0 boundary set_capacity below is a no-op.
  ReplayRun run(method, config.insertion_layer, config.seed, num_tasks, num_tasks,
                run_fingerprint(config, tasks));
  std::size_t first_task = 0;
  if (ckpt.resuming()) {
    // The restored engine already holds the seeded (and since-evolved)
    // latents, the restored totals already include the prep charge, and the
    // restored rng streams put every later draw where the killed run left it.
    Checkpoint loaded = run.resume(ckpt.resume_path, net, nullptr);
    result = std::move(loaded.sequential);
    first_task = static_cast<std::size_t>(loaded.meta.next_unit);
  } else {
    const snn::SpikeOpStats prep = run.record(
        net, data::time_rescale(tasks.replay_subset, method.cl_timesteps, method.rescale));
    result.total_latency_ms += latency_model.latency_ms(prep);
    result.total_energy_uj += energy_model.energy_uj(prep);
  }
  result.method_name = method.name;

  // Evaluation memos: the base test set and every task's test set.  The
  // prefix stays frozen for the whole stream, so one pass per set serves
  // every task's evaluation.
  const metrics::EvalSettings eval{.timesteps = method.cl_timesteps,
                                   .rescale = method.rescale,
                                   .policy = run.policy()};
  std::vector<data::Dataset> test_latents;
  test_latents.reserve(1 + tasks.task_test.size());
  test_latents.push_back(eval_latents(net, tasks.pretrain_test, config.insertion_layer, eval));
  for (const data::Dataset& test : tasks.task_test) {
    test_latents.push_back(eval_latents(net, test, config.insertion_layer, eval));
  }
  const auto accuracy = [&](const data::Dataset& test) {
    return snn::evaluate(net, test, config.insertion_layer, eval.policy, eval.batch_size);
  };

  for (std::size_t task = first_task; task < num_tasks; ++task) {
    obs::metrics().counter("core.tasks").add(1);
    obs::TraceSpan task_span(obs::metrics(), "core.task_seconds");
    SequentialTaskRow row;
    row.task_index = task;
    row.class_id = tasks.task_classes[task];
    snn::SpikeOpStats task_stats;

    // Task boundary: re-apply the byte-budget schedule before this task's CL
    // phase; a shrink re-evicts deterministically per the store's policy.
    // The default const schedule never calls set_capacity, so unscheduled
    // runs stay bit-identical.
    if (method.budget_schedule.active()) {
      run.engine().set_capacity(method.budget_schedule.capacity_for_task(
          task, num_tasks, method.replay_budget.capacity_bytes));
    }

    data::Dataset new_rescaled = data::time_rescale(
        tasks.task_train[task], method.cl_timesteps, method.rescale);
    // The recordings of the just-learned class, taken from its inputs before
    // they move into the memo; the frozen prefix runs over them after the CL
    // phase.
    data::Dataset recordings = data::take_per_class(
        new_rescaled, std::span<const std::int32_t>(&row.class_id, 1),
        config.replay_per_new_class);
    snn::SpikeOpStats new_prefix;
    const data::Dataset new_latents =
        frozen_latents(net, std::move(new_rescaled), config.insertion_layer, run.policy(),
                       method.batch_size, &new_prefix);

    // CL phase for this task (Alg. 1 lines 21–33 against the current store).
    snn::AdamOptimizer optimizer;
    for (std::size_t epoch = 0; epoch < config.epochs_per_task; ++epoch) {
      (void)run.epoch(net, new_latents, new_prefix, optimizer, task_stats);
    }

    // Record the just-learned class into the store (on-device latents).
    task_stats.add(run.record(net, std::move(recordings)));
    const ShardedReplayEngine& store = run.engine();
    row.latent_memory_bytes = store.memory_bytes();
    row.budget_bytes = store.capacity_bytes();
    row.buffer_entries = store.size();
    row.buffer_evictions = store.evictions();
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

    // Task boundary.  Per-task Adam state dies here anyway, so no optimizer
    // is saved.
    const bool stopping =
        run.end_unit(ckpt, task + 1, task + 1 - first_task, net, nullptr,
                     [&](Checkpoint& ck) { ck.sequential = result; });
    if (stopping) break;
  }
  return result;
}

}  // namespace r4ncl::core
