// Cost-accounting invariants of the continual-learning engine: what gets
// charged, to whom, and the orderings the paper's efficiency claims rest on.
#include <gtest/gtest.h>

#include "core/continual_trainer.hpp"
#include "core/pretrain.hpp"

namespace r4ncl::core {
namespace {

PretrainConfig micro_config() {
  PretrainConfig cfg;
  cfg.network.layer_sizes = {24, 16, 12, 8};
  cfg.network.num_classes = 4;
  cfg.network.seed = 5;
  cfg.data_params.channels = 24;
  cfg.data_params.classes = 4;
  cfg.data_params.timesteps = 20;
  cfg.data_params.ridge_width = 3.0;
  cfg.data_params.position_pool = 5;
  cfg.data_params.channel_jitter = 1.5;
  cfg.data_params.time_jitter = 1.0;
  cfg.data_params.seed = 7;
  cfg.split.train_per_class = 6;
  cfg.split.test_per_class = 3;
  cfg.split.replay_per_class = 2;
  cfg.split.new_class = 3;
  cfg.split.seed = 9;
  cfg.epochs = 6;
  cfg.batch_size = 6;
  return cfg;
}

const PretrainedScenario& scenario() {
  static PretrainedScenario s = make_pretrained_scenario(micro_config());
  return s;
}

ClRunResult run(const NclMethodConfig& method, std::size_t insertion, std::size_t epochs) {
  snn::SnnNetwork net = scenario().net.clone();
  ClRunConfig cfg;
  cfg.method = method;
  cfg.insertion_layer = insertion;
  cfg.epochs = epochs;
  cfg.eval_every = epochs;
  return run_continual_learning(net, scenario().tasks, cfg);
}

NclMethodConfig micro_sota() {
  NclMethodConfig m = NclMethodConfig::spiking_lr();
  m.cl_timesteps = 20;
  m.batch_size = 6;
  return m;
}

NclMethodConfig micro_r4ncl() {
  NclMethodConfig m = NclMethodConfig::replay4ncl(10);
  m.batch_size = 6;
  return m;
}

TEST(ClAccounting, SotaChargesDecompressionEveryEpoch) {
  const ClRunResult res = run(micro_sota(), 2, 3);
  ASSERT_EQ(res.rows.size(), 3u);
  const auto bits0 = res.rows[0].stats.decompress_bits;
  EXPECT_GT(bits0, 0u);
  // Same buffer decompressed each epoch → identical charge per epoch.
  EXPECT_EQ(res.rows[1].stats.decompress_bits, bits0);
  EXPECT_EQ(res.rows[2].stats.decompress_bits, bits0);
}

TEST(ClAccounting, Replay4NclChargesNoDecompression) {
  const ClRunResult res = run(micro_r4ncl(), 2, 2);
  for (const auto& row : res.rows) EXPECT_EQ(row.stats.decompress_bits, 0u);
}

TEST(ClAccounting, PrepChargedOnceNotPerEpoch) {
  const ClRunResult short_run = run(micro_r4ncl(), 2, 1);
  const ClRunResult long_run = run(micro_r4ncl(), 2, 4);
  EXPECT_EQ(short_run.prep_stats.neuron_updates, long_run.prep_stats.neuron_updates);
  EXPECT_GT(long_run.total_latency_ms(), short_run.total_latency_ms());
}

TEST(ClAccounting, TrainingChargesBackwardWork) {
  const ClRunResult res = run(micro_sota(), 1, 2);
  for (const auto& row : res.rows) {
    EXPECT_GT(row.stats.backward_synops, 0u) << "epoch " << row.epoch;
  }
  // The preparation phase is inference-only.
  EXPECT_EQ(res.prep_stats.backward_synops, 0u);
}

TEST(ClAccounting, ReducedTimestepReducesEveryCostComponent) {
  const ClRunResult sota = run(micro_sota(), 1, 2);
  const ClRunResult r4 = run(micro_r4ncl(), 1, 2);
  snn::SpikeOpStats sota_total = sota.prep_stats;
  for (const auto& r : sota.rows) sota_total.add(r.stats);
  snn::SpikeOpStats r4_total = r4.prep_stats;
  for (const auto& r : r4.rows) r4_total.add(r.stats);
  EXPECT_LT(r4_total.neuron_updates, sota_total.neuron_updates);
  EXPECT_LT(r4_total.backward_synops, sota_total.backward_synops);
  EXPECT_LT(r4_total.timestep_slots, sota_total.timestep_slots);
}

TEST(ClAccounting, LatentWidthMatchesInsertionLayer) {
  for (std::size_t insertion : {1u, 2u, 3u}) {
    const ClRunResult a = run(micro_r4ncl(), insertion, 1);
    const ClRunResult b = run(micro_r4ncl(), insertion, 1);
    EXPECT_EQ(a.latent_memory_bytes, b.latent_memory_bytes) << "memory not deterministic";
  }
  // Wider insertion layers must cost more memory per stored timestep; with
  // widths 16/12/8 and byte padding (2/2/1 bytes per row) layers 1 and 2
  // coincide, layer 3 must be strictly smaller.
  const ClRunResult l1 = run(micro_r4ncl(), 1, 1);
  const ClRunResult l3 = run(micro_r4ncl(), 3, 1);
  EXPECT_GT(l1.latent_memory_bytes, l3.latent_memory_bytes);
}

TEST(ClAccounting, EvaluationIsNeverCharged) {
  // Identical runs with eval every epoch vs only at the end must charge the
  // same modelled work.
  snn::SnnNetwork net_a = scenario().net.clone();
  ClRunConfig cfg_a;
  cfg_a.method = micro_r4ncl();
  cfg_a.insertion_layer = 2;
  cfg_a.epochs = 3;
  cfg_a.eval_every = 1;
  const ClRunResult a = run_continual_learning(net_a, scenario().tasks, cfg_a);
  snn::SnnNetwork net_b = scenario().net.clone();
  ClRunConfig cfg_b = cfg_a;
  cfg_b.eval_every = 3;
  const ClRunResult b = run_continual_learning(net_b, scenario().tasks, cfg_b);
  EXPECT_DOUBLE_EQ(a.total_latency_ms(), b.total_latency_ms());
  EXPECT_DOUBLE_EQ(a.total_energy_uj(), b.total_energy_uj());
}

TEST(ClAccounting, NaiveBaselineHasNoPrepWork) {
  NclMethodConfig naive = NclMethodConfig::naive_baseline();
  naive.cl_timesteps = 20;
  naive.batch_size = 6;
  const ClRunResult res = run(naive, 0, 2);
  EXPECT_EQ(res.prep_stats.neuron_updates, 0u);
  EXPECT_EQ(res.prep_latency_ms, 0.0);
  EXPECT_EQ(res.latent_memory_bytes, 0u);
}

std::vector<float> all_weights(const snn::SnnNetwork& net) {
  std::vector<float> w;
  for (std::size_t i = 0; i < net.num_hidden(); ++i) {
    const auto ff = net.hidden(i).w_ff().values();
    const auto rec = net.hidden(i).w_rec().values();
    w.insert(w.end(), ff.begin(), ff.end());
    w.insert(w.end(), rec.begin(), rec.end());
  }
  const auto ro = net.readout().w().values();
  w.insert(w.end(), ro.begin(), ro.end());
  return w;
}

TEST(Pretraining, WeightsFollowEveryDataParam) {
  // The pre-trained weights are a function of the whole configuration: the
  // two ShdSynthParams fields a config hash once skipped each give a
  // different network, never a copy of another configuration's weights.
  PretrainConfig pool = micro_config();
  pool.data_params.position_pool = 2;
  PretrainConfig shared = micro_config();
  shared.data_params.shared_position_fraction = 0.5;
  const std::vector<float> base = all_weights(make_pretrained_scenario(micro_config()).net);
  const std::vector<float> by_pool = all_weights(make_pretrained_scenario(pool).net);
  const std::vector<float> by_shared = all_weights(make_pretrained_scenario(shared).net);
  EXPECT_NE(by_pool, base);
  EXPECT_NE(by_shared, base);
  EXPECT_NE(by_shared, by_pool);
  EXPECT_EQ(all_weights(make_pretrained_scenario(micro_config()).net), base)
      << "pre-training the same configuration twice must give the same weights";
}

}  // namespace
}  // namespace r4ncl::core
