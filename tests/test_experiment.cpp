// Experiment presets: paper geometry, scaling behaviour, bench method
// factories, run totals.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace r4ncl::core {
namespace {

TEST(Experiment, StandardConfigMatchesPaperGeometry) {
  const PretrainConfig cfg = standard_pretrain_config(1.0);
  EXPECT_EQ(cfg.network.layer_sizes, (std::vector<std::size_t>{700, 200, 100, 50}));
  EXPECT_EQ(cfg.network.num_classes, 20u);
  EXPECT_EQ(cfg.data_params.channels, 700u);
  EXPECT_EQ(cfg.data_params.timesteps, 100u);
  EXPECT_EQ(cfg.split.new_class, 19);
  EXPECT_FLOAT_EQ(cfg.lr, kEtaPre);
  EXPECT_EQ(cfg.network.surrogate.kind, snn::SurrogateKind::kFastSigmoid);
  EXPECT_FLOAT_EQ(cfg.network.surrogate.scale, 10.0f);
}

TEST(Experiment, ScaleShrinksSampleCountsNotArchitecture) {
  const PretrainConfig full = standard_pretrain_config(1.0);
  const PretrainConfig half = standard_pretrain_config(0.5);
  EXPECT_EQ(half.network.layer_sizes, full.network.layer_sizes);
  EXPECT_EQ(half.data_params.timesteps, full.data_params.timesteps);
  EXPECT_LT(half.split.train_per_class, full.split.train_per_class);
  EXPECT_LE(half.split.test_per_class, full.split.test_per_class);
}

TEST(Experiment, ScaleHasFloors) {
  const PretrainConfig tiny = standard_pretrain_config(0.01);
  EXPECT_GE(tiny.split.train_per_class, 4u);
  EXPECT_GE(tiny.split.test_per_class, 4u);
  EXPECT_GE(tiny.split.replay_per_class, 2u);
}

TEST(Experiment, ScaleClampInsaneValues) {
  EXPECT_NO_THROW(standard_pretrain_config(-5.0));
  EXPECT_NO_THROW(standard_pretrain_config(1e9));
}

TEST(Experiment, ReplaySubsetSmallerThanTrainSet) {
  for (double scale : {0.25, 0.5, 1.0, 2.0}) {
    const PretrainConfig cfg = standard_pretrain_config(scale);
    EXPECT_LE(cfg.split.replay_per_class, cfg.split.train_per_class) << "scale " << scale;
  }
}

TEST(Experiment, ConfigFromArgsOverridesEpochs) {
  Config cfg;
  cfg.set("pretrain_epochs", "3");
  cfg.set("scale", "0.5");
  const PretrainConfig pc = pretrain_config_from(cfg);
  EXPECT_EQ(pc.epochs, 3u);
  EXPECT_LT(pc.split.train_per_class, 12u);
}

TEST(Experiment, BenchReplay4NclPreset) {
  const NclMethodConfig m = bench_replay4ncl();
  EXPECT_EQ(m.cl_timesteps, 40u);
  EXPECT_TRUE(m.adaptive_threshold);
  EXPECT_EQ(m.storage_codec.ratio, 1u);
  // Rescaled η (see bench_replay4ncl() in core/experiment.hpp): between the
  // paper divisor and η_pre.
  EXPECT_LT(m.lr_cl, kEtaPre);
  EXPECT_GT(m.lr_cl, kEtaPre / 100.0f);
}

TEST(Experiment, BenchSpikingLrIsPaperExact) {
  const NclMethodConfig m = bench_spiking_lr();
  EXPECT_EQ(m.cl_timesteps, 100u);
  EXPECT_EQ(m.storage_codec.ratio, 2u);
  EXPECT_FLOAT_EQ(m.lr_cl, kEtaPre);
}

TEST(Experiment, BenchReplay4NclCustomTimesteps) {
  EXPECT_EQ(bench_replay4ncl(60).cl_timesteps, 60u);
}

TEST(Experiment, TotalCostAccumulatesPrepAndEpochs) {
  ClRunResult res;
  res.prep_latency_ms = 10.0;
  res.prep_energy_uj = 1.0;
  ClEpochRow row;
  row.latency_ms = 5.0;
  row.energy_uj = 2.0;
  res.rows.push_back(row);
  res.rows.push_back(row);
  EXPECT_DOUBLE_EQ(res.total_latency_ms(), 20.0);
  EXPECT_DOUBLE_EQ(res.total_energy_uj(), 5.0);
}

}  // namespace
}  // namespace r4ncl::core
