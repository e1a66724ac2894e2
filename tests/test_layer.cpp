// LIF layer forward dynamics: integration, threshold crossing, reset, decay,
// recurrence, stats accounting; backward shape checks.
#include <gtest/gtest.h>

#include <string>

#include "snn/layer.hpp"
#include "util/rng.hpp"

namespace r4ncl::snn {
namespace {

/// A 1→1 layer with a hand-set feedforward weight makes the membrane
/// trajectory fully predictable.
struct ScalarLayer {
  explicit ScalarLayer(float w, float beta = 0.5f, bool recurrent = false) : rng(1) {
    LifParams lif;
    lif.beta = beta;
    lif.recurrent = recurrent;
    layer = std::make_unique<RecurrentLifLayer>(1, 1, lif, SurrogateParams{}, rng);
    layer->w_ff()(0) = w;
    if (recurrent) layer->w_rec()(0) = 0.0f;
  }
  Rng rng;
  std::unique_ptr<RecurrentLifLayer> layer;
};

Tensor constant_input(std::size_t T, float v = 1.0f) {
  Tensor x(T, 1, 1);
  x.fill(v);
  return x;
}

TEST(LifLayer, IntegratesUntilThreshold) {
  // w = 0.4, β = 0.5, θ = 1: V = 0.4, 0.6, 0.7, 0.75... never reaches 1.
  ScalarLayer s(0.4f);
  const Tensor out = s.layer->forward(constant_input(10), SpikeMode::kHard,
                                      ThresholdPolicy::fixed(1.0f), nullptr, nullptr);
  for (std::size_t t = 0; t < 10; ++t) EXPECT_EQ(out(t, 0, 0), 0.0f) << "t=" << t;
}

TEST(LifLayer, SpikesWhenThresholdCrossed) {
  // w = 0.8, β = 0.5: V(0)=0.8, V(1)=1.2 → spike at t=1.
  ScalarLayer s(0.8f);
  LayerCache cache;
  const Tensor out = s.layer->forward(constant_input(3), SpikeMode::kHard,
                                      ThresholdPolicy::fixed(1.0f), &cache, nullptr);
  EXPECT_EQ(out(0, 0, 0), 0.0f);
  EXPECT_EQ(out(1, 0, 0), 1.0f);
  EXPECT_NEAR(cache.membrane(1, 0, 0), 1.2f, 1e-6);
}

TEST(LifLayer, SoftResetSubtractsTheta) {
  // After the spike at t=1 (V=1.2): V(2) = 0.5·1.2 − 1.0 + 0.8 = 0.4.
  ScalarLayer s(0.8f);
  LayerCache cache;
  (void)s.layer->forward(constant_input(3), SpikeMode::kHard, ThresholdPolicy::fixed(1.0f),
                         &cache, nullptr);
  EXPECT_NEAR(cache.membrane(2, 0, 0), 0.4f, 1e-6);
}

TEST(LifLayer, MembraneDecaysWithoutInput) {
  ScalarLayer s(1.5f, 0.5f);
  Tensor x(4, 1, 1);
  x(0, 0, 0) = 1.0f;  // single pulse
  LayerCache cache;
  (void)s.layer->forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(10.0f), &cache, nullptr);
  EXPECT_NEAR(cache.membrane(0, 0, 0), 1.5f, 1e-6);
  EXPECT_NEAR(cache.membrane(1, 0, 0), 0.75f, 1e-6);
  EXPECT_NEAR(cache.membrane(2, 0, 0), 0.375f, 1e-6);
}

TEST(LifLayer, LowerThresholdFiresMore) {
  Rng rng(3);
  LifParams lif;
  RecurrentLifLayer layer(10, 8, lif, SurrogateParams{}, rng);
  Tensor x(20, 2, 10);
  Rng data(5);
  for (auto& v : x.values()) v = data.bernoulli(0.3) ? 1.0f : 0.0f;
  SpikeOpStats high_stats, low_stats;
  (void)layer.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(1.5f), nullptr, &high_stats);
  (void)layer.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(0.4f), nullptr, &low_stats);
  EXPECT_GT(low_stats.spikes, high_stats.spikes);
}

TEST(LifLayer, RecurrentFeedbackChangesDynamics) {
  Rng rng(4);
  LifParams rec_on;
  rec_on.recurrent = true;
  LifParams rec_off;
  rec_off.recurrent = false;
  Rng rng_a(10), rng_b(10);
  RecurrentLifLayer a(6, 6, rec_on, SurrogateParams{}, rng_a);
  RecurrentLifLayer b(6, 6, rec_off, SurrogateParams{}, rng_b);
  // Same feedforward weights (same seed); excitatory recurrence added to a.
  a.w_rec().fill(0.4f);
  Tensor x(15, 1, 6);
  Rng data(6);
  for (auto& v : x.values()) v = data.bernoulli(0.4) ? 1.0f : 0.0f;
  SpikeOpStats sa, sb;
  (void)a.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(1.0f), nullptr, &sa);
  (void)b.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(1.0f), nullptr, &sb);
  EXPECT_GT(sa.spikes, sb.spikes) << "excitatory recurrence must add spikes";
}

TEST(LifLayer, StatsCountsNeuronUpdatesExactly) {
  Rng rng(7);
  RecurrentLifLayer layer(4, 3, LifParams{}, SurrogateParams{}, rng);
  Tensor x(5, 2, 4);
  SpikeOpStats stats;
  (void)layer.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(1.0f), nullptr, &stats);
  EXPECT_EQ(stats.neuron_updates, 5u * 2u * 3u);
  EXPECT_EQ(stats.timestep_slots, 5u * 2u);
  EXPECT_EQ(stats.synops, 0u) << "no input events → no synops";
  EXPECT_EQ(stats.spikes, 0u);
}

TEST(LifLayer, StatsSynopsScaleWithEvents) {
  Rng rng(8);
  RecurrentLifLayer layer(4, 3, LifParams{}, SurrogateParams{}, rng);
  Tensor x(2, 1, 4);
  x(0, 0, 0) = 1.0f;
  x(0, 0, 1) = 1.0f;
  x(1, 0, 2) = 1.0f;
  SpikeOpStats stats;
  (void)layer.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(100.0f), nullptr, &stats);
  // 3 input events × fanout 3, no output spikes (θ huge) → no recurrent events.
  EXPECT_EQ(stats.synops, 9u);
}

TEST(LifLayer, AdaptiveThresholdRecordedInCache) {
  Rng rng(9);
  RecurrentLifLayer layer(3, 3, LifParams{}, SurrogateParams{}, rng);
  Tensor x(12, 1, 3);  // silence → decay rule engages
  LayerCache cache;
  (void)layer.forward(x, SpikeMode::kHard, ThresholdPolicy::adaptive(12), &cache, nullptr);
  ASSERT_EQ(cache.theta.size(), 12u);
  // Silent input: after the first boundary the threshold follows the decay
  // curve (≈0.5), well below the base 1.0.
  EXPECT_LT(cache.theta[5], 0.6f);
}

TEST(LifLayer, RejectsWrongInputWidth) {
  Rng rng(10);
  RecurrentLifLayer layer(4, 2, LifParams{}, SurrogateParams{}, rng);
  Tensor x(3, 1, 5);
  EXPECT_THROW(
      (void)layer.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(1.0f), nullptr, nullptr),
      Error);
}

/// A backward pass fed a cache or input from another batch size or width
/// must throw its pinned message instead of reading out of bounds.
class BackwardShapeChecks : public ::testing::Test {
 protected:
  static constexpr std::size_t kT = 5, kB = 3, kIn = 4, kOut = 6;

  BackwardShapeChecks()
      : rng(14),
        layer(kIn, kOut, LifParams{}, SurrogateParams{}, rng),
        x(kT, kB, kIn),
        d_out(kT, kB, kOut) {
    x.fill(1.0f);
    d_out.fill(0.5f);
    (void)layer.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(1.0f), &cache, nullptr);
  }

  /// Runs backward and returns the thrown message ("" if nothing threw).
  std::string backward_error(const Tensor& input, const Tensor& grad) {
    try {
      layer.backward(input, cache, grad, nullptr, nullptr);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  }

  Rng rng;
  RecurrentLifLayer layer;
  Tensor x;
  Tensor d_out;
  LayerCache cache;
};

TEST_F(BackwardShapeChecks, MatchingShapesPass) { EXPECT_EQ(backward_error(x, d_out), ""); }

TEST_F(BackwardShapeChecks, RejectsInputWidth) {
  EXPECT_NE(backward_error(Tensor(kT, kB, kIn + 1), d_out)
                .find("backward input feature dim 5 != 4"),
            std::string::npos);
}

TEST_F(BackwardShapeChecks, RejectsMembraneBatch) {
  // x and d_out from a 2-row batch against a cache recorded for 3 rows.
  EXPECT_NE(backward_error(Tensor(kT, 2, kIn), Tensor(kT, 2, kOut))
                .find("cache membrane is 5x3x6, this pass is 5x2x6"),
            std::string::npos);
}

TEST_F(BackwardShapeChecks, RejectsMembraneWidth) {
  cache.membrane = Tensor(kT, kB, kOut - 1);
  EXPECT_NE(backward_error(x, d_out).find("cache membrane is 5x3x5, this pass is 5x3x6"),
            std::string::npos);
}

TEST_F(BackwardShapeChecks, RejectsSpikesBatch) {
  cache.spikes = Tensor(kT, kB + 1, kOut);
  EXPECT_NE(backward_error(x, d_out).find("cache spikes is 5x4x6, this pass is 5x3x6"),
            std::string::npos);
}

TEST_F(BackwardShapeChecks, RejectsSpikesWidth) {
  cache.spikes = Tensor(kT, kB, kOut + 2);
  EXPECT_NE(backward_error(x, d_out).find("cache spikes is 5x3x8, this pass is 5x3x6"),
            std::string::npos);
}

TEST_F(BackwardShapeChecks, RejectsThetaLength) {
  cache.theta.pop_back();
  EXPECT_NE(backward_error(x, d_out).find("cache theta has 4 steps, this pass has 5"),
            std::string::npos);
}

TEST(LifLayer, SaveLoadRoundTrip) {
  Rng rng(11);
  RecurrentLifLayer layer(5, 4, LifParams{}, SurrogateParams{}, rng);
  const std::string path = ::testing::TempDir() + "r4ncl_layer.bin";
  {
    BinaryWriter out(path);
    layer.save(out);
    out.close();
  }
  Rng rng2(999);  // different init; load must overwrite
  RecurrentLifLayer restored(5, 4, LifParams{}, SurrogateParams{}, rng2);
  {
    BinaryReader in(path);
    restored.load(in);
  }
  for (std::size_t i = 0; i < layer.w_ff().size(); ++i) {
    EXPECT_EQ(layer.w_ff()(i), restored.w_ff()(i));
  }
  for (std::size_t i = 0; i < layer.w_rec().size(); ++i) {
    EXPECT_EQ(layer.w_rec()(i), restored.w_rec()(i));
  }
  std::remove(path.c_str());
}

TEST(LifLayer, HardSpikesAreBinary) {
  Rng rng(12);
  RecurrentLifLayer layer(8, 6, LifParams{}, SurrogateParams{}, rng);
  Tensor x(10, 3, 8);
  Rng data(13);
  for (auto& v : x.values()) v = data.bernoulli(0.5) ? 1.0f : 0.0f;
  const Tensor out =
      layer.forward(x, SpikeMode::kHard, ThresholdPolicy::fixed(0.5f), nullptr, nullptr);
  for (float v : out.values()) EXPECT_TRUE(v == 0.0f || v == 1.0f);
}

}  // namespace
}  // namespace r4ncl::snn
