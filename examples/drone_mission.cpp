// The paper's Fig. 1(b) use case: an SNN-based autonomous mobile agent
// (e.g. a drone) deployed in remote dynamic environments.
//
// Mission storyline:
//   1. The drone ships with a sound classifier pre-trained on 19 known
//      acoustic event classes (SHD-like spike streams from its sensor).
//   2. In the field it encounters a new event class (class 19) and must
//      learn it on-device — under a tight energy and memory budget, without
//      forgetting the 19 known classes.
//   3. We compare three adaptation strategies the drone could use:
//      naive fine-tuning (forgets), SpikingLR (expensive), and Replay4NCL.
//
// The example prints a mission report with the accuracy/latency/energy/
// memory trade-offs.  Uses a reduced-scale dataset so it runs in ~2 minutes;
// pass scale=1.0 epochs=40 for the full-size scenario.
//
// Mid-mission power loss: the Replay4NCL adaptation (the strategy the drone
// would actually deploy) honours the standard checkpoint knobs —
//   drone_mission checkpoint=leg.ckpt stop_after=5
//   drone_mission resume=leg.ckpt
// The first invocation saves full state after 5 adaptation epochs and lands;
// the relaunched mission resumes and finishes bit-identical to one that was
// never interrupted.
#include <cstdio>

#include "core/experiment.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(cfg, {"checkpoint", "checkpoint_every", "resume", "stop_after"});
  const core::ScopedMetrics metrics(cfg);
  // Checkpoint knobs validate eagerly, before the (expensive) pre-training.
  core::CheckpointOptions ckpt = core::checkpoint_options_from(cfg);
  const long long stop_after = cfg.get_int("stop_after", 0);
  R4NCL_CHECK(stop_after >= 0,
              "stop_after=" << stop_after << " must be a non-negative epoch count");
  R4NCL_CHECK(stop_after == 0 || ckpt.saving(),
              "stop_after=" << stop_after << " requires checkpoint=<path>");
  ckpt.stop_after_units = static_cast<std::size_t>(stop_after);

  Config scaled = cfg;
  if (!cfg.get("scale")) scaled.set("scale", "0.5");  // default: half-size mission
  core::PretrainedScenario scenario = core::standard_scenario(scaled);

  const std::size_t epochs =
      static_cast<std::size_t>(scaled.get_int("epochs", 60));
  const std::size_t insertion_layer = 3;  // cheapest on-device option

  std::printf("\n=== drone mission report ===\n");
  std::printf("pre-deployment: %zu known classes, Top-1 %.1f%%\n",
              scenario.tasks.old_classes.size(), 100.0 * scenario.pretrain_accuracy);
  std::printf("field event: new class %d observed (%zu training encounters)\n\n",
              scenario.tasks.new_class, scenario.tasks.new_train.size());

  struct Strategy {
    const char* name;
    core::NclMethodConfig method;
    std::size_t insertion;
    /// Checkpoint/resume applies only to the deployed strategy (Replay4NCL);
    /// the comparison baselines always run fresh.
    bool checkpointed;
  };
  core::NclMethodConfig r4ncl = core::bench_replay4ncl();
  // Half-size mission → half the optimizer steps per epoch; rescale η as
  // documented in core/experiment.hpp.
  r4ncl.lr_cl = 5e-4f;
  const Strategy strategies[] = {
      {"naive fine-tune", core::NclMethodConfig::naive_baseline(), 0, false},
      {"SpikingLR", core::bench_spiking_lr(), insertion_layer, false},
      {"Replay4NCL", r4ncl, insertion_layer, true},
  };
  if (ckpt.resuming()) {
    std::printf("relaunch: resuming the Replay4NCL adaptation from %s\n\n",
                ckpt.resume_path.c_str());
  }

  bool stopped_early = false;
  std::printf("%-16s %10s %10s %12s %12s %12s\n", "strategy", "old-task", "new-task",
              "latency[ms]", "energy[uJ]", "memory[B]");
  for (const Strategy& s : strategies) {
    snn::SnnNetwork net = scenario.net.clone();
    core::ClRunConfig run;
    run.method = s.method;
    run.insertion_layer = s.insertion;
    run.epochs = epochs;
    run.eval_every = epochs;  // only the post-adaptation state matters here
    const core::ClRunResult res =
        s.checkpointed
            ? core::run_continual_learning(net, scenario.tasks, run, ckpt)
            : core::run_continual_learning(net, scenario.tasks, run);
    std::printf("%-16s %9.1f%% %9.1f%% %12.1f %12.1f %12zu\n", s.name,
                100.0 * res.final_acc_old, 100.0 * res.final_acc_new,
                res.total_latency_ms(), res.total_energy_uj(), res.latent_memory_bytes);
    if (s.checkpointed && res.rows.size() < epochs) stopped_early = true;
  }

  if (stopped_early) {
    std::printf("\nmission leg complete: Replay4NCL powered down after %zu epoch(s);\n"
                "full adaptation state saved to %s — relaunch with resume= to finish.\n",
                ckpt.stop_after_units, ckpt.save_path.c_str());
    return 0;
  }
  std::printf("\nverdict: Replay4NCL keeps the known-class accuracy of replay methods\n"
              "at a fraction of the adaptation latency/energy, fitting the drone's\n"
              "on-device budget (the naive strategy forgets the known classes).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
