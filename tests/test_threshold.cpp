// Adaptive threshold controller (Alg. 1 lines 10–17) behaviour.
#include <cmath>

#include <gtest/gtest.h>

#include "snn/threshold.hpp"

namespace r4ncl::snn {
namespace {

TEST(Threshold, FixedPolicyIsConstant) {
  const ThresholdPolicy p = ThresholdPolicy::fixed(0.7f);
  ThresholdState st(p);
  for (int t = 0; t < 20; ++t) EXPECT_EQ(st.threshold_at(t), 0.7f);
  st.observe(3, 100);  // must be ignored
  EXPECT_EQ(st.threshold_at(21), 0.7f);
}

TEST(Threshold, SilentLayerDecaysTowardHalf) {
  // No spikes → Alg. 1 line 16: Vthr = 1/(1+exp(−0.001·t)) ≈ 0.5 for small t.
  const ThresholdPolicy p = ThresholdPolicy::adaptive(40);
  ThresholdState st(p);
  (void)st.threshold_at(0);  // boundary with no observed spikes
  const float v5 = st.threshold_at(5);
  EXPECT_NEAR(v5, 1.0f / (1.0f + std::exp(-0.001f * 5.0f)), 1e-5);
  EXPECT_LT(v5, 0.52f);
  EXPECT_GT(v5, 0.49f);
}

TEST(Threshold, SpikesRaiseThresholdByTimingRule) {
  // Spikes at average time 10 with Tstep 40 → Vthr = 1 + 0.01·(40−10) = 1.3.
  const ThresholdPolicy p = ThresholdPolicy::adaptive(40);
  ThresholdState st(p);
  (void)st.threshold_at(0);
  for (int t = 1; t <= 4; ++t) (void)st.threshold_at(t);
  st.observe(10, 4);  // 4 spikes all at t=10 (window [5,10))... observed pre-boundary
  const float v = st.threshold_at(10);
  EXPECT_NEAR(v, 1.0f + 0.01f * (40.0f - 10.0f), 1e-5);
}

TEST(Threshold, AverageSpikeTimeWeighted) {
  const ThresholdPolicy p = ThresholdPolicy::adaptive(100);
  ThresholdState st(p);
  (void)st.threshold_at(0);
  st.observe(2, 1);   // one spike at t=2
  st.observe(4, 3);   // three spikes at t=4 → avg = (2+12)/4 = 3.5
  const float v = st.threshold_at(5);
  EXPECT_NEAR(v, 1.0f + 0.01f * (100.0f - 3.5f), 1e-5);
}

TEST(Threshold, WindowResetsAfterAdjustment) {
  const ThresholdPolicy p = ThresholdPolicy::adaptive(40);
  ThresholdState st(p);
  (void)st.threshold_at(0);
  st.observe(1, 5);
  (void)st.threshold_at(5);   // consumes window
  // New window with no spikes → decay rule at next boundary.
  const float v = st.threshold_at(10);
  EXPECT_NEAR(v, 1.0f / (1.0f + std::exp(-0.001f * 10.0f)), 1e-5);
}

TEST(Threshold, HoldsBetweenBoundaries) {
  const ThresholdPolicy p = ThresholdPolicy::adaptive(40);
  ThresholdState st(p);
  (void)st.threshold_at(0);
  st.observe(0, 2);
  const float at5 = st.threshold_at(5);
  EXPECT_EQ(st.threshold_at(6), at5);
  EXPECT_EQ(st.threshold_at(7), at5);
  EXPECT_EQ(st.threshold_at(9), at5);
}

TEST(Threshold, EarlySpikesGiveHigherThresholdThanLateSpikes) {
  const ThresholdPolicy p = ThresholdPolicy::adaptive(40);
  ThresholdState early(p), late(p);
  (void)early.threshold_at(0);
  (void)late.threshold_at(0);
  early.observe(1, 10);
  late.observe(4, 10);
  EXPECT_GT(early.threshold_at(5), late.threshold_at(5));
}

TEST(Threshold, AdaptiveBaseRespected) {
  const ThresholdPolicy p = ThresholdPolicy::adaptive(40, /*base=*/0.8f);
  ThresholdState st(p);
  (void)st.threshold_at(0);
  st.observe(40, 1);  // avg time = Tstep → Vthr = base exactly
  EXPECT_NEAR(st.threshold_at(5), 0.8f, 1e-5);
}

TEST(Threshold, WindowEndIsTheNextAdjustmentBoundary) {
  // The event forward runs one parallel dispatch per window, so a window
  // must end exactly where threshold_at may change θ.
  const ThresholdState fixed(ThresholdPolicy::fixed(1.0f));
  EXPECT_EQ(fixed.window_end(0, 40), 40);
  EXPECT_EQ(fixed.window_end(17, 40), 40);
  const ThresholdState never(ThresholdPolicy::adaptive(40, 1.0f, 0));
  EXPECT_EQ(never.window_end(0, 40), 40);
  const ThresholdState every(ThresholdPolicy::adaptive(40, 1.0f, 1));
  EXPECT_EQ(every.window_end(0, 40), 1);
  EXPECT_EQ(every.window_end(39, 40), 40);
  const ThresholdState paper(ThresholdPolicy::adaptive(12));  // interval 5
  EXPECT_EQ(paper.window_end(0, 12), 5);
  EXPECT_EQ(paper.window_end(5, 12), 10);
  EXPECT_EQ(paper.window_end(10, 12), 12);  // partial last window
  EXPECT_EQ(paper.window_end(7, 12), 10);   // mid-window start
  const ThresholdState longer(ThresholdPolicy::adaptive(12, 1.0f, 15));
  EXPECT_EQ(longer.window_end(0, 12), 12);
}

TEST(Threshold, PolicyFactoriesSetFields) {
  const auto fixed = ThresholdPolicy::fixed(1.2f);
  EXPECT_EQ(fixed.mode, ThresholdMode::kFixed);
  EXPECT_EQ(fixed.fixed_value, 1.2f);
  const auto adaptive = ThresholdPolicy::adaptive(64, 1.0f, 8, 0.02f, 0.002f);
  EXPECT_EQ(adaptive.mode, ThresholdMode::kAdaptive);
  EXPECT_EQ(adaptive.total_timesteps, 64);
  EXPECT_EQ(adaptive.adjust_interval, 8);
  EXPECT_FLOAT_EQ(adaptive.gain, 0.02f);
  EXPECT_FLOAT_EQ(adaptive.decay, 0.002f);
}

}  // namespace
}  // namespace r4ncl::snn
