// Cost models and evaluation settings.
#include <gtest/gtest.h>

#include "metrics/accuracy.hpp"
#include "metrics/cost_model.hpp"

namespace r4ncl::metrics {
namespace {

TEST(CostModel, ZeroStatsZeroCost) {
  const snn::SpikeOpStats stats{};
  EXPECT_DOUBLE_EQ(EnergyModel().energy_uj(stats), 0.0);
  EXPECT_DOUBLE_EQ(LatencyModel().latency_ms(stats), 0.0);
}

TEST(CostModel, EnergyIsLinearInOps) {
  snn::SpikeOpStats a{};
  a.synops = 1000;
  a.neuron_updates = 500;
  snn::SpikeOpStats b = a;
  b.synops *= 2;
  b.neuron_updates *= 2;
  const EnergyModel model;
  EXPECT_NEAR(model.energy_uj(b), 2.0 * model.energy_uj(a), 1e-12);
}

TEST(CostModel, EnergyMatchesHandComputation) {
  EnergyModelParams p;
  p.synop_pj = 10.0;
  p.neuron_update_pj = 2.0;
  p.spike_pj = 1.0;
  p.backward_op_pj = 0.5;
  p.decompress_bit_pj = 0.1;
  p.timestep_slot_pj = 3.0;
  snn::SpikeOpStats s{};
  s.synops = 4;
  s.neuron_updates = 5;
  s.spikes = 6;
  s.backward_synops = 8;
  s.decompress_bits = 10;
  s.timestep_slots = 2;
  // 40 + 10 + 6 + 4 + 1 + 6 = 67 pJ.
  EXPECT_NEAR(EnergyModel(p).energy_uj(s), 67e-6, 1e-12);
}

TEST(CostModel, LatencyMatchesHandComputation) {
  LatencyModelParams p;
  p.synop_ns = 2.0;
  p.neuron_update_ns = 1.0;
  p.spike_ns = 0.0;
  p.backward_op_ns = 0.25;
  p.decompress_bit_ns = 0.5;
  p.timestep_slot_ns = 10.0;
  snn::SpikeOpStats s{};
  s.synops = 10;
  s.neuron_updates = 20;
  s.backward_synops = 8;
  s.decompress_bits = 4;
  s.timestep_slots = 1;
  // 20 + 20 + 2 + 2 + 10 = 54 ns.
  EXPECT_NEAR(LatencyModel(p).latency_ms(s), 54e-6, 1e-12);
}

TEST(CostModel, StatsAddAccumulates) {
  snn::SpikeOpStats a{}, b{};
  a.synops = 1;
  a.spikes = 2;
  b.synops = 10;
  b.backward_synops = 5;
  a.add(b);
  EXPECT_EQ(a.synops, 11u);
  EXPECT_EQ(a.spikes, 2u);
  EXPECT_EQ(a.backward_synops, 5u);
}

TEST(EvalSettings, DefaultsMatchSota) {
  const EvalSettings s;
  EXPECT_EQ(s.timesteps, 100u);
  EXPECT_EQ(s.policy.mode, snn::ThresholdMode::kFixed);
}

}  // namespace
}  // namespace r4ncl::metrics
