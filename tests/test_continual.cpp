// Integration tests of the continual-learning engine on a scaled-down
// scenario: replay must mitigate forgetting, Replay4NCL must cost less than
// SpikingLR, and every bookkeeping field must be sane.
#include <gtest/gtest.h>

#include "core/continual_trainer.hpp"
#include "core/pretrain.hpp"

namespace r4ncl::core {
namespace {

/// Small but non-trivial scenario: 5 classes, 48 channels, T = 20 native.
/// Jitter is scaled down with the geometry so the problem stays learnable in
/// a few seconds while keeping the temporal class coding of the full dataset.
PretrainConfig small_scenario_config() {
  PretrainConfig cfg;
  cfg.network.layer_sizes = {48, 32, 16, 8};
  cfg.network.num_classes = 5;
  cfg.network.seed = 17;
  cfg.data_params.channels = 48;
  cfg.data_params.classes = 5;
  cfg.data_params.timesteps = 20;
  cfg.data_params.ridge_width = 4.0;
  cfg.data_params.position_pool = 6;
  cfg.data_params.channel_jitter = 2.0;
  cfg.data_params.time_jitter = 1.0;
  cfg.data_params.seed = 23;
  cfg.split.train_per_class = 10;
  cfg.split.test_per_class = 5;
  cfg.split.replay_per_class = 3;
  cfg.split.new_class = 4;
  cfg.split.seed = 29;
  cfg.epochs = 20;
  cfg.batch_size = 8;
  return cfg;
}

/// Methods rescaled to the small native T = 20.
NclMethodConfig small_replay4ncl() {
  NclMethodConfig m = NclMethodConfig::replay4ncl(10);  // T* = native/2
  m.batch_size = 8;
  return m;
}

NclMethodConfig small_spiking_lr() {
  NclMethodConfig m = NclMethodConfig::spiking_lr();
  m.cl_timesteps = 20;
  m.batch_size = 8;
  return m;
}

/// Shared pre-trained scenario (built once; tests clone the network).
const PretrainedScenario& scenario() {
  static PretrainedScenario s = make_pretrained_scenario(small_scenario_config());
  return s;
}

ClRunConfig run_config(const NclMethodConfig& method, std::size_t insertion,
                       std::size_t epochs = 6) {
  ClRunConfig cfg;
  cfg.method = method;
  cfg.insertion_layer = insertion;
  cfg.epochs = epochs;
  cfg.seed = 55;
  return cfg;
}

TEST(ContinualIntegration, PretrainingLearnsOldClasses) {
  EXPECT_GT(scenario().pretrain_accuracy, 0.6)
      << "pre-training must learn the old classes for CL tests to be meaningful";
}

TEST(ContinualIntegration, RowsAreWellFormed) {
  snn::SnnNetwork net = scenario().net.clone();
  const ClRunResult res =
      run_continual_learning(net, scenario().tasks, run_config(small_replay4ncl(), 2, 4));
  ASSERT_EQ(res.rows.size(), 4u);
  for (const auto& row : res.rows) {
    EXPECT_GE(row.loss, 0.0);
    EXPECT_GT(row.latency_ms, 0.0);
    EXPECT_GT(row.energy_uj, 0.0);
    EXPECT_GE(row.acc_old, 0.0);  // eval_every=1 → every row evaluated
    EXPECT_LE(row.acc_old, 1.0);
    EXPECT_GE(row.acc_new, 0.0);
    EXPECT_LE(row.acc_new, 1.0);
  }
  EXPECT_GT(res.latent_memory_bytes, 0u);
  EXPECT_GT(res.prep_stats.neuron_updates, 0u);
  EXPECT_EQ(res.insertion_layer, 2u);
  EXPECT_EQ(res.method_name, "Replay4NCL");
}

TEST(ContinualIntegration, NaiveBaselineForgets) {
  snn::SnnNetwork net = scenario().net.clone();
  NclMethodConfig naive = NclMethodConfig::naive_baseline();
  naive.cl_timesteps = 20;
  naive.batch_size = 8;
  const ClRunResult res =
      run_continual_learning(net, scenario().tasks, run_config(naive, 0, 30));
  // Learns the new task...
  EXPECT_GT(res.final_acc_new, 0.6);
  // ...but old-task accuracy collapses well below the pre-training level
  // (Fig. 1a catastrophic forgetting).
  EXPECT_LT(res.final_acc_old, scenario().pretrain_accuracy * 0.6);
  EXPECT_EQ(res.latent_memory_bytes, 0u) << "no replay buffer for the baseline";
}

TEST(ContinualIntegration, ReplayMitigatesForgetting) {
  snn::SnnNetwork net_replay = scenario().net.clone();
  const ClRunResult with_replay = run_continual_learning(
      net_replay, scenario().tasks, run_config(small_spiking_lr(), 2, 8));
  snn::SnnNetwork net_naive = scenario().net.clone();
  NclMethodConfig naive = NclMethodConfig::naive_baseline();
  naive.cl_timesteps = 20;
  naive.batch_size = 8;
  const ClRunResult without =
      run_continual_learning(net_naive, scenario().tasks, run_config(naive, 0, 8));
  EXPECT_GT(with_replay.final_acc_old, without.final_acc_old + 0.15)
      << "latent replay must preserve substantially more old knowledge";
}

TEST(ContinualIntegration, Replay4NclCheaperThanSpikingLr) {
  snn::SnnNetwork net_a = scenario().net.clone();
  const ClRunResult r4 = run_continual_learning(net_a, scenario().tasks,
                                                run_config(small_replay4ncl(), 2, 4));
  snn::SnnNetwork net_b = scenario().net.clone();
  const ClRunResult sota = run_continual_learning(net_b, scenario().tasks,
                                                  run_config(small_spiking_lr(), 2, 4));
  EXPECT_LT(r4.total_latency_ms(), sota.total_latency_ms());
  EXPECT_LT(r4.total_energy_uj(), sota.total_energy_uj());
  EXPECT_LT(r4.latent_memory_bytes, sota.latent_memory_bytes);
}

TEST(ContinualIntegration, InsertionLayerZeroReplaysRawInput) {
  snn::SnnNetwork net = scenario().net.clone();
  const ClRunResult res =
      run_continual_learning(net, scenario().tasks, run_config(small_replay4ncl(), 0, 3));
  // No frozen prefix → preparation does no network work.
  EXPECT_EQ(res.prep_stats.neuron_updates, 0u);
  EXPECT_GT(res.latent_memory_bytes, 0u);
}

TEST(ContinualIntegration, LaterInsertionUsesSmallerLatentMemory) {
  std::size_t previous = SIZE_MAX;
  for (std::size_t layer : {1u, 2u, 3u}) {
    snn::SnnNetwork net = scenario().net.clone();
    const ClRunResult res = run_continual_learning(
        net, scenario().tasks, run_config(small_replay4ncl(), layer, 2));
    EXPECT_LT(res.latent_memory_bytes, previous) << "layer " << layer;
    previous = res.latent_memory_bytes;
  }
}

TEST(ContinualIntegration, EvalEverySkipsIntermediateEvaluations) {
  snn::SnnNetwork net = scenario().net.clone();
  ClRunConfig cfg = run_config(small_replay4ncl(), 2, 5);
  cfg.eval_every = 2;
  const ClRunResult res = run_continual_learning(net, scenario().tasks, cfg);
  EXPECT_GE(res.rows[0].acc_old, 0.0);
  EXPECT_LT(res.rows[1].acc_old, 0.0) << "skipped epoch must carry sentinel -1";
  EXPECT_GE(res.rows[4].acc_old, 0.0) << "final epoch always evaluated";
}

TEST(ContinualIntegration, DeterministicAcrossRuns) {
  snn::SnnNetwork net_a = scenario().net.clone();
  snn::SnnNetwork net_b = scenario().net.clone();
  const ClRunConfig cfg = run_config(small_replay4ncl(), 2, 3);
  EXPECT_EQ(run_continual_learning(net_a, scenario().tasks, cfg),
            run_continual_learning(net_b, scenario().tasks, cfg));
}

TEST(ContinualIntegration, RejectsBadConfig) {
  snn::SnnNetwork net = scenario().net.clone();
  ClRunConfig cfg = run_config(small_replay4ncl(), 9);
  EXPECT_THROW((void)run_continual_learning(net, scenario().tasks, cfg), Error);
  cfg = run_config(small_replay4ncl(), 2, 0);
  EXPECT_THROW((void)run_continual_learning(net, scenario().tasks, cfg), Error);
}

}  // namespace
}  // namespace r4ncl::core
