// SnnNetwork: construction, partial-range execution, insertion widths,
// training-step mechanics, checkpoint round-trip.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snn/network.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace r4ncl::snn {
namespace {

NetworkConfig tiny_config() {
  NetworkConfig cfg;
  cfg.layer_sizes = {10, 8, 6, 4};
  cfg.num_classes = 3;
  cfg.seed = 21;
  return cfg;
}

/// The network as the only section of a file at `path`, through the
/// BinaryWriter/BinaryReader forms the checkpoint uses.
void save_to(const SnnNetwork& net, const std::string& path) {
  BinaryWriter out(path);
  net.save(out);
  out.close();
}

void load_from(SnnNetwork& net, const std::string& path) {
  BinaryReader in(path);
  net.load(in);
}

Tensor random_spikes(std::size_t T, std::size_t B, std::size_t N, double p, std::uint64_t seed) {
  Tensor x(T, B, N);
  Rng rng(seed);
  for (auto& v : x.values()) v = rng.bernoulli(p) ? 1.0f : 0.0f;
  return x;
}

TEST(Network, GeometryAccessors) {
  SnnNetwork net(tiny_config());
  EXPECT_EQ(net.num_hidden(), 3u);
  EXPECT_EQ(net.num_classes(), 3u);
  EXPECT_EQ(net.insertion_width(0), 10u);
  EXPECT_EQ(net.insertion_width(1), 8u);
  EXPECT_EQ(net.insertion_width(2), 6u);
  EXPECT_EQ(net.insertion_width(3), 4u);
  EXPECT_THROW((void)net.insertion_width(4), Error);
}

TEST(Network, PaperGeometryDefaults) {
  SnnNetwork net{NetworkConfig{}};
  EXPECT_EQ(net.num_hidden(), 3u);
  EXPECT_EQ(net.insertion_width(0), 700u);
  EXPECT_EQ(net.insertion_width(1), 200u);
  EXPECT_EQ(net.insertion_width(2), 100u);
  EXPECT_EQ(net.insertion_width(3), 50u);
  EXPECT_EQ(net.num_classes(), 20u);
}

TEST(Network, ForwardLogitsShape) {
  SnnNetwork net(tiny_config());
  const Tensor x = random_spikes(7, 2, 10, 0.3, 5);
  const Tensor logits = net.forward_logits(x, 0, ThresholdPolicy::fixed(1.0f));
  EXPECT_EQ(logits.rows(), 2u);
  EXPECT_EQ(logits.cols(), 3u);
}

TEST(Network, RunHiddenRangeComposition) {
  // Running [0,1) then [1,3) must equal running [0,3) in one call.
  SnnNetwork net(tiny_config());
  const Tensor x = random_spikes(6, 2, 10, 0.4, 6);
  const ThresholdPolicy p = ThresholdPolicy::fixed(1.0f);
  const Tensor mid = net.run_hidden(x, 0, 1, p);
  const Tensor split_out = net.run_hidden(mid, 1, 3, p);
  const Tensor direct = net.run_hidden(x, 0, 3, p);
  ASSERT_TRUE(split_out.same_shape(direct));
  for (std::size_t i = 0; i < direct.size(); ++i) EXPECT_EQ(split_out(i), direct(i));
}

TEST(Network, RunHiddenIdentityRange) {
  SnnNetwork net(tiny_config());
  const Tensor x = random_spikes(4, 1, 10, 0.5, 7);
  const Tensor same = net.run_hidden(x, 1, 1, ThresholdPolicy::fixed(1.0f));
  // from == to: input passes through untouched (and width is unchecked).
  EXPECT_EQ(same.size(), x.size());
}

TEST(Network, ForwardFromInsertionPoint) {
  SnnNetwork net(tiny_config());
  const Tensor latent = random_spikes(6, 2, 6, 0.4, 8);  // width of layer 2 input
  const Tensor logits = net.forward_logits(latent, 2, ThresholdPolicy::fixed(1.0f));
  EXPECT_EQ(logits.rows(), 2u);
  EXPECT_EQ(logits.cols(), 3u);
}

TEST(Network, TrainStepReducesLossOnFixedBatch) {
  SnnNetwork net(tiny_config());
  AdamOptimizer opt;
  const Tensor x = random_spikes(8, 4, 10, 0.4, 9);
  const std::int32_t labels_arr[] = {0, 1, 2, 0};
  const std::span<const std::int32_t> labels(labels_arr, 4);
  const ThresholdPolicy p = ThresholdPolicy::fixed(1.0f);
  double first_loss = 0.0, last_loss = 0.0;
  for (int i = 0; i < 60; ++i) {
    const StepResult r = net.train_step(x, labels, 0, p, opt, 5e-3f);
    if (i == 0) first_loss = r.loss;
    last_loss = r.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.8) << "repeated steps on one batch must fit it";
}

TEST(Network, TrainStepFromLateInsertionOnlyUpdatesLearningLayers) {
  SnnNetwork net(tiny_config());
  AdamOptimizer opt;
  const Tensor latent = random_spikes(6, 2, 4, 0.5, 10);  // readout input width
  const std::int32_t labels_arr[] = {1, 2};
  // Snapshot all weights.
  std::vector<float> h0(net.hidden(0).w_ff().values().begin(),
                        net.hidden(0).w_ff().values().end());
  std::vector<float> h2(net.hidden(2).w_ff().values().begin(),
                        net.hidden(2).w_ff().values().end());
  std::vector<float> ro(net.readout().w().values().begin(), net.readout().w().values().end());
  (void)net.train_step(latent, {labels_arr, 2}, 3, ThresholdPolicy::fixed(1.0f), opt, 1e-2f);
  // Frozen hidden layers untouched.
  for (std::size_t i = 0; i < h0.size(); ++i) EXPECT_EQ(net.hidden(0).w_ff()(i), h0[i]);
  for (std::size_t i = 0; i < h2.size(); ++i) EXPECT_EQ(net.hidden(2).w_ff()(i), h2[i]);
  // Readout moved.
  double moved = 0.0;
  for (std::size_t i = 0; i < ro.size(); ++i) {
    moved += std::fabs(net.readout().w()(i) - ro[i]);
  }
  EXPECT_GT(moved, 0.0f);
}

TEST(Network, TrainStepMidInsertionFreezesPrefixTrainsSuffix) {
  SnnNetwork net(tiny_config());
  AdamOptimizer opt;
  const Tensor latent = random_spikes(6, 2, 8, 0.5, 11);  // hidden-1 input width
  const std::int32_t labels_arr[] = {0, 1};
  std::vector<float> h0(net.hidden(0).w_ff().values().begin(),
                        net.hidden(0).w_ff().values().end());
  std::vector<float> h1(net.hidden(1).w_ff().values().begin(),
                        net.hidden(1).w_ff().values().end());
  (void)net.train_step(latent, {labels_arr, 2}, 1, ThresholdPolicy::fixed(1.0f), opt, 1e-2f);
  for (std::size_t i = 0; i < h0.size(); ++i) EXPECT_EQ(net.hidden(0).w_ff()(i), h0[i]);
  double moved = 0.0;
  for (std::size_t i = 0; i < h1.size(); ++i) {
    moved += std::fabs(net.hidden(1).w_ff()(i) - h1[i]);
  }
  EXPECT_GT(moved, 0.0f) << "learning layer must receive updates";
}

TEST(Network, SaveLoadRoundTrip) {
  SnnNetwork net(tiny_config());
  const std::string path = ::testing::TempDir() + "r4ncl_net.ckpt";
  save_to(net, path);
  NetworkConfig cfg2 = tiny_config();
  cfg2.seed = 1234;  // different init
  SnnNetwork restored(cfg2);
  load_from(restored, path);
  const Tensor x = random_spikes(5, 2, 10, 0.4, 12);
  const ThresholdPolicy p = ThresholdPolicy::fixed(1.0f);
  const Tensor a = net.forward_logits(x, 0, p);
  const Tensor b = restored.forward_logits(x, 0, p);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a(i), b(i));
  std::remove(path.c_str());
}

TEST(Network, LoadRejectsWrongGeometry) {
  SnnNetwork net(tiny_config());
  const std::string path = ::testing::TempDir() + "r4ncl_net2.ckpt";
  save_to(net, path);
  NetworkConfig other = tiny_config();
  other.layer_sizes = {10, 8, 6, 5};
  SnnNetwork wrong(other);
  EXPECT_THROW(load_from(wrong, path), Error);
  std::remove(path.c_str());
}

TEST(Network, LoadRejectsCorruptLayerWords) {
  // Each hidden layer stores its detach_reset and recurrent flags and its
  // surrogate kind as u32 words after the layer tag, n_in, n_out and beta.
  // A word outside its range must raise the pinned Error: a kind past the
  // enum would otherwise load and train the layer with zero surrogate
  // gradients.
  SnnNetwork net(tiny_config());
  const std::string path = ::testing::TempDir() + "r4ncl_net_words.ckpt";
  save_to(net, path);
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const char tag[4] = {'L', 'A', 'Y', 'R'};
  const auto layer = std::search(bytes.begin(), bytes.end(), std::begin(tag), std::end(tag));
  ASSERT_NE(layer, bytes.end());
  const std::size_t words_at = static_cast<std::size_t>(layer - bytes.begin()) + 4 + 8 + 8 + 4;
  struct Patch {
    std::size_t word;
    std::uint32_t value;
    const char* message;
  };
  const Patch patches[] = {{0, 2, "corrupt layer: detach_reset flag is 2"},
                           {1, 2, "corrupt layer: recurrent flag is 2"},
                           {2, 3, "corrupt layer: surrogate kind is 3"},
                           {2, 7, "corrupt layer: surrogate kind is 7"}};
  for (const Patch& patch : patches) {
    std::vector<char> mangled = bytes;
    std::memcpy(mangled.data() + words_at + 4 * patch.word, &patch.value, sizeof patch.value);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mangled.data(), static_cast<std::streamsize>(mangled.size()));
    }
    SnnNetwork restored(tiny_config());
    try {
      load_from(restored, path);
      ADD_FAILURE() << "expected '" << patch.message << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(patch.message), std::string::npos)
          << "actual message: " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Network, CloneIsIndependent) {
  SnnNetwork net(tiny_config());
  SnnNetwork copy = net.clone();
  net.hidden(0).w_ff()(0) += 1.0f;
  EXPECT_NE(net.hidden(0).w_ff()(0), copy.hidden(0).w_ff()(0));
}

TEST(Network, DeterministicConstruction) {
  SnnNetwork a(tiny_config()), b(tiny_config());
  for (std::size_t i = 0; i < a.hidden(0).w_ff().size(); ++i) {
    EXPECT_EQ(a.hidden(0).w_ff()(i), b.hidden(0).w_ff()(i));
  }
}

}  // namespace
}  // namespace r4ncl::snn
