// Supervised training loop: the substrate must learn separable spike
// patterns, and evaluate() must score them.
#include <gtest/gtest.h>

#include "snn/trainer.hpp"
#include "util/rng.hpp"

namespace r4ncl::snn {
namespace {

/// Tiny separable dataset: class k fires a dense burst on channel band
/// [4k, 4k+4) with light noise elsewhere.
data::Dataset banded_dataset(std::size_t classes, std::size_t per_class, std::size_t T,
                             std::uint64_t seed) {
  const std::size_t channels = 4 * classes;
  data::Dataset out;
  Rng rng(seed);
  for (std::size_t k = 0; k < classes; ++k) {
    for (std::size_t i = 0; i < per_class; ++i) {
      data::Sample s;
      s.label = static_cast<std::int32_t>(k);
      s.raster = data::SpikeRaster(T, channels);
      for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t c = 0; c < channels; ++c) {
          const bool in_band = c >= 4 * k && c < 4 * k + 4;
          const double p = in_band ? 0.65 : 0.03;
          if (rng.bernoulli(p)) s.raster.set(t, c, true);
        }
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

NetworkConfig small_net(std::size_t channels, std::size_t classes) {
  NetworkConfig cfg;
  cfg.layer_sizes = {channels, 24, 16};
  cfg.num_classes = classes;
  cfg.seed = 33;
  return cfg;
}

TEST(Trainer, LearnsSeparablePatterns) {
  const auto train = banded_dataset(3, 10, 12, 1);
  const auto test = banded_dataset(3, 6, 12, 2);
  SnnNetwork net(small_net(12, 3));
  AdamOptimizer opt;
  TrainOptions opts;
  opts.epochs = 12;
  opts.batch_size = 6;
  opts.lr = 5e-3f;
  const auto history = train_supervised(net, train, opt, opts);
  ASSERT_EQ(history.size(), 12u);
  EXPECT_LT(history.back().loss, history.front().loss);
  const double acc = evaluate(net, test);
  EXPECT_GT(acc, 0.9) << "separable 3-class problem must be learnable";
}

TEST(Trainer, HistoryRecordsWork) {
  const auto train = banded_dataset(2, 4, 8, 3);
  SnnNetwork net(small_net(8, 2));
  AdamOptimizer opt;
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 4;
  const auto history = train_supervised(net, train, opt, opts);
  for (const auto& rec : history) {
    EXPECT_GT(rec.stats.neuron_updates, 0u);
    EXPECT_GT(rec.stats.backward_synops, 0u);
    EXPECT_GE(rec.train_accuracy, 0.0);
    EXPECT_LE(rec.train_accuracy, 1.0);
  }
}

TEST(Trainer, DeterministicGivenSeeds) {
  const auto train = banded_dataset(2, 6, 8, 5);
  SnnNetwork net_a(small_net(8, 2)), net_b(small_net(8, 2));
  AdamOptimizer opt_a, opt_b;
  TrainOptions opts;
  opts.epochs = 3;
  opts.shuffle_seed = 11;
  EXPECT_EQ(train_supervised(net_a, train, opt_a, opts),
            train_supervised(net_b, train, opt_b, opts));
}

TEST(Trainer, EmptyDatasetThrows) {
  SnnNetwork net(small_net(8, 2));
  AdamOptimizer opt;
  TrainOptions opts;
  EXPECT_THROW((void)train_supervised(net, data::Dataset{}, opt, opts), Error);
}

TEST(Trainer, EvaluateEmptyDatasetIsZero) {
  SnnNetwork net(small_net(8, 2));
  EXPECT_EQ(evaluate(net, data::Dataset{}), 0.0);
}

TEST(Trainer, EvaluateFromInsertionPoint) {
  // Latent-style dataset fed at the readout's input layer must score without
  // touching the lower layers.
  const std::size_t readout_in = 16;
  data::Dataset latents;
  Rng rng(6);
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < 4; ++i) {
      data::Sample s;
      s.label = k;
      s.raster = data::SpikeRaster(8, readout_in);
      for (std::size_t t = 0; t < 8; ++t) {
        for (std::size_t c = 0; c < readout_in; ++c) {
          const bool band = (k == 0) ? c < 8 : c >= 8;
          if (rng.bernoulli(band ? 0.6 : 0.05)) s.raster.set(t, c, true);
        }
      }
      latents.push_back(std::move(s));
    }
  }
  SnnNetwork net(small_net(8, 2));
  const double acc = evaluate(net, latents, /*insertion_layer=*/2);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace r4ncl::snn
