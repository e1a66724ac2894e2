// Quickstart: the public API in ~50 lines.
//
// 1. Build the paper's scenario (700-channel synthetic SHD, 4-layer
//    recurrent SNN) at half scale and pre-train it (about 1.3 s in a
//    release build on a 4-core host).
// 2. Learn the held-out 20th class with Replay4NCL.
// 3. Report accuracy and the modelled latency/energy/memory costs.
//
// Run:  ./quickstart                        (defaults)
//       ./quickstart scale=1.0 epochs=40    (full-size scenario)
#include <cstdio>

#include "core/experiment.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  // --- 1: dataset + network + pre-training --------------------------------
  Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(cfg);
  const core::ScopedMetrics metrics(cfg);
  if (!cfg.get("scale")) cfg.set("scale", "0.5");
  core::PretrainedScenario scenario = core::standard_scenario(cfg);
  std::printf("pre-trained on %zu old classes: test accuracy %.1f%%\n",
              scenario.tasks.old_classes.size(), 100.0 * scenario.pretrain_accuracy);

  // --- 2: continual learning with Replay4NCL -----------------------------
  core::ClRunConfig run;
  run.method = core::bench_replay4ncl();  // T* = 40, adaptive Vthr, reduced η
  run.method.lr_cl = 5e-4f;  // η rescaled for the half-size dataset (fewer steps/epoch)
  run.insertion_layer = 2;   // latent replay enters hidden layer 2
  run.epochs = static_cast<std::size_t>(cfg.get_int("epochs", 40));
  run.eval_every = 10;

  const core::ClRunResult result =
      core::run_continual_learning(scenario.net, scenario.tasks, run);

  // --- 3: report ----------------------------------------------------------
  std::printf("\nafter Replay4NCL continual learning (insertion layer %zu):\n",
              run.insertion_layer);
  std::printf("  old-task accuracy : %.1f%%\n", 100.0 * result.final_acc_old);
  std::printf("  new-task accuracy : %.1f%%\n", 100.0 * result.final_acc_new);
  std::printf("  latent memory     : %zu bytes\n", result.latent_memory_bytes);
  std::printf("  modelled latency  : %.1f ms\n", result.total_latency_ms());
  std::printf("  modelled energy   : %.1f uJ\n", result.total_energy_uj());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
