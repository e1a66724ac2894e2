// Budgeted long-stream demo: latent replay under a fixed byte budget.
//
// A mobile agent keeps meeting new classes (the paper's Fig. 1(b) setting)
// but its latent-replay region is a fixed memory block.  This example
// 1. sizes the budget from a probe of the per-entry footprint (default:
//    room for the base latents plus ~3 tasks of recordings),
// 2. runs a long sequential stream with that budget and the chosen policy,
// 3. prints per-task memory/accuracy rows — the buffer saturates instead of
//    growing — plus the final per-class occupancy of a standalone buffer fed
//    the same stream of labels, to show what each policy retains.
//
// Run:  ./budget_stream                             (defaults: 6 tasks, reservoir)
//       ./budget_stream tasks=8 policy=fifo
//       ./budget_stream budget=4096 policy=class_balanced epochs=4
//       ./budget_stream latent_bits=2 tasks=8       (sub-byte quantized latents)
//       ./budget_stream replay_samples=8   (a capped per-epoch draw; every
//           draw streams, decoding one training batch at a time, so
//           replay-assembly memory stays bounded)
//       ./budget_stream policy=low_importance tasks=8      (importance-aware
//           eviction: spike density at insert, overridden by the trainer's
//           per-sample error feedback)
//       ./budget_stream budget_schedule=linear:16384:4096 policy=low_importance
//           (the budget shrinks at every task boundary — another subsystem
//           claiming the replay region — with deterministic re-eviction)
//       ./budget_stream checkpoint=run.ckpt stop_after=2 tasks=6
//       ./budget_stream resume=run.ckpt checkpoint=run.ckpt tasks=6
//           (power-cycle drill: the first invocation saves a full-state
//           checkpoint after 2 tasks and exits; the second — a fresh
//           process — resumes and finishes bit-identical to an
//           uninterrupted run.  tools/run_resume_smoke.py automates this.)
#include <cstdio>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/sequential.hpp"
#include "util/error.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  std::vector<std::string_view> keys = core::standard_cli_keys();
  keys.insert(keys.end(), {"tasks", "stop_after"});
  cfg.validate_keys(keys);
  const core::ScopedMetrics metrics(cfg);
  core::init_runtime(cfg);
  const std::size_t num_tasks = static_cast<std::size_t>(cfg.get_int("tasks", 6));
  const core::ReplayPolicy policy =
      core::parse_replay_policy(cfg.get_string("policy", "reservoir"));
  // Checkpoint knobs validate eagerly — a bad cadence or a stop_after
  // without a checkpoint path fails before any pre-training runs.
  core::CheckpointOptions ckpt = core::checkpoint_options_from(cfg);
  const long long stop_after = cfg.get_int("stop_after", 0);
  R4NCL_CHECK(stop_after >= 0,
              "stop_after=" << stop_after << " must be a non-negative task count");
  R4NCL_CHECK(stop_after == 0 || ckpt.saving(),
              "stop_after=" << stop_after << " requires checkpoint=<path>");
  ckpt.stop_after_units = static_cast<std::size_t>(stop_after);

  // So do the scenario and replay knobs (budget=64k, latent_bits=3, ...).
  core::PretrainConfig pc = core::pretrain_config_from(cfg);
  core::SequentialRunConfig run;
  run.method = core::bench_replay4ncl();
  core::apply_replay_overrides(run.method, cfg);
  run.insertion_layer = 2;
  run.epochs_per_task = static_cast<std::size_t>(cfg.get_int("epochs", 8));
  run.replay_per_new_class = pc.split.replay_per_class;
  run.method.replay_budget.policy = policy;
  run.verbose = cfg.get_bool("verbose", false);

  const data::SyntheticShdGenerator generator(pc.data_params);
  const data::SequentialTasks tasks =
      data::build_sequential_tasks(generator, pc.split, num_tasks);

  std::printf("pre-training on %zu base classes (stream of %zu arriving classes)...\n",
              tasks.base_classes.size(), num_tasks);
  snn::SnnNetwork net{pc.network};
  {
    snn::AdamOptimizer opt;
    snn::TrainOptions opts;
    opts.epochs = pc.epochs;
    opts.batch_size = pc.batch_size;
    opts.lr = pc.lr;
    (void)snn::train_supervised(net, tasks.pretrain_train, opt, opts);
  }

  if (run.method.replay_budget.capacity_bytes == 0) {
    // Probe the per-entry footprint at the insertion layer and grant the
    // buffer the base latents plus ~3 tasks of per-class recordings.
    core::LatentReplayBuffer probe(run.method.storage_codec, run.method.cl_timesteps);
    const data::Dataset rescaled = data::time_rescale(
        tasks.replay_subset, run.method.cl_timesteps, run.method.rescale);
    const Tensor latent = net.run_hidden(data::raster_to_batch(rescaled.front().raster), 0,
                                         run.insertion_layer, run.method.policy(), nullptr);
    probe.add(data::batch_to_raster(latent, 0), rescaled.front().label);
    const std::size_t entry = probe.memory_bytes();
    run.method.replay_budget.capacity_bytes =
        entry * (tasks.replay_subset.size() + 3 * run.replay_per_new_class);
  }
  const std::size_t budget = run.method.replay_budget.capacity_bytes;
  if (run.method.budget_schedule.active()) {
    std::printf("budget schedule: %s (re-applied at every task boundary)\n",
                run.method.budget_schedule.spec().c_str());
  }
  if (run.method.storage_codec.quantized()) {
    std::printf("replay budget: %zu bytes, policy %s, latents quantized to %d bits\n\n",
                budget, std::string(core::to_string(policy)).c_str(),
                int(run.method.storage_codec.latent_bits));
  } else {
    std::printf("replay budget: %zu bytes, policy %s, legacy binary latents\n\n", budget,
                std::string(core::to_string(policy)).c_str());
  }

  if (ckpt.resuming()) {
    std::printf("resuming from %s\n", ckpt.resume_path.c_str());
  }
  const core::SequentialRunResult res = core::run_sequential(net, tasks, run, ckpt);
  std::printf("task class  mem[B]/budget  entries evicted  acc_base acc_stream\n");
  for (const auto& row : res.rows) {
    // row.budget_bytes is the cap actually in force for this task — it
    // tracks the schedule when one is active and equals `budget` otherwise.
    std::printf("%4zu %5d  %6zu/%-6zu  %7zu %7zu  %7.1f%% %9.1f%%\n", row.task_index,
                row.class_id, row.latent_memory_bytes, row.budget_bytes,
                row.buffer_entries, row.buffer_evictions, 100.0 * row.acc_base,
                100.0 * row.acc_learned);
    if (row.budget_bytes > 0 && row.latent_memory_bytes > row.budget_bytes) {
      std::printf("BUG: budget exceeded\n");
      return 1;
    }
  }
  if (res.rows.size() < num_tasks) {
    // stop_after power-down: the checkpoint carries everything; a fresh
    // process with resume= picks up at the next task.
    std::printf("\nstopped after %zu/%zu tasks; checkpoint saved to %s\n",
                res.rows.size(), num_tasks, ckpt.save_path.c_str());
    return 0;
  }

  // Occupancy view: feed the same label stream into a standalone buffer
  // with room for only half the stream, so the eviction policy must choose.
  data::SpikeRaster blank(run.method.cl_timesteps, 32);
  const std::size_t stream_len =
      tasks.replay_subset.size() + num_tasks * run.replay_per_new_class;
  core::ReplayBufferConfig demo_budget = run.method.replay_budget;
  {
    core::LatentReplayBuffer probe(run.method.storage_codec, run.method.cl_timesteps);
    probe.add(blank, 0);
    demo_budget.capacity_bytes = probe.memory_bytes() * (stream_len / 2);
  }
  core::LatentReplayBuffer occupancy(run.method.storage_codec, run.method.cl_timesteps,
                                     demo_budget);
  for (const auto& s : tasks.replay_subset) (void)occupancy.add(blank, s.label);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    for (std::size_t i = 0; i < run.replay_per_new_class; ++i) {
      (void)occupancy.add(blank, tasks.task_classes[t]);
    }
  }
  std::printf("\nper-class occupancy of a %s buffer fed the same label stream:\n",
              std::string(core::to_string(policy)).c_str());
  for (const auto& [label, count] : occupancy.class_occupancy()) {
    std::printf("  class %2d: %zu\n", label, count);
  }
  std::printf("stream seen %zu, stored %zu, evicted %zu\n", occupancy.stream_seen(),
              occupancy.size(), occupancy.evictions());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
