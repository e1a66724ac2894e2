// Hot-path bit-identity contracts: the event-driven forward must reproduce
// the dense kernel bit for bit (outputs, caches AND SpikeOpStats), the
// batch-parallel loops must make threads=N ≡ threads=1, and the trainer/eval
// batch scratch must stay allocation-free after the first minibatch.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/experiment.hpp"
#include "core/pretrain.hpp"
#include "core/sequential.hpp"
#include "data/spike_data.hpp"
#include "snn/layer.hpp"
#include "snn/network.hpp"
#include "snn/trainer.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl {
namespace {

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double density,
                                std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(density) ? 1 : 0;
  return r;
}

Tensor random_cube(std::size_t T, std::size_t B, std::size_t C, double density,
                   std::uint64_t seed) {
  Tensor x(T, B, C);
  Rng rng(seed);
  for (auto& v : x.values()) v = rng.bernoulli(density) ? 1.0f : 0.0f;
  return x;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(float)) == 0;
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

bool same_weights(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs the hard-mode forward (event path) and the dense reference and
/// asserts bitwise-identical outputs, caches and stats.
void expect_sparse_matches_dense(const snn::RecurrentLifLayer& layer, const Tensor& x,
                                 const snn::ThresholdPolicy& policy) {
  snn::LayerCache dense_cache, sparse_cache;
  snn::SpikeOpStats dense_stats, sparse_stats;
  const Tensor dense =
      layer.forward_dense(x, snn::SpikeMode::kHard, policy, &dense_cache, &dense_stats);
  const Tensor sparse =
      layer.forward(x, snn::SpikeMode::kHard, policy, &sparse_cache, &sparse_stats);
  EXPECT_TRUE(same_bits(dense, sparse));
  EXPECT_TRUE(same_bits(dense_cache.membrane, sparse_cache.membrane));
  EXPECT_TRUE(same_bits(dense_cache.spikes, sparse_cache.spikes));
  EXPECT_EQ(dense_cache.theta, sparse_cache.theta);
  EXPECT_EQ(dense_stats, sparse_stats);
}

snn::RecurrentLifLayer make_layer(std::size_t C, std::size_t n_out, bool recurrent,
                                  std::uint64_t seed) {
  snn::LifParams lif;
  lif.recurrent = recurrent;
  Rng rng(seed);
  return snn::RecurrentLifLayer(C, n_out, lif, snn::SurrogateParams{}, rng);
}

/// (B, N) shapes for the event path's register strips: the original
/// widths (16-wide strips, 4-wide strips), N = 50 (ncl_stream's learning
/// layer: three 16-wide strips and 2 scalar columns) and N = 7 (one 4-wide
/// strip and 3 scalar columns), the last two at B = 5.
struct Shape {
  std::size_t B, N;
};

TEST(SparseForward, MatchesDenseAcrossDensities) {
  const std::size_t T = 10, C = 48;
  const auto policy = snn::ThresholdPolicy::fixed(1.0f);
  for (const Shape shape : {Shape{4, 32}, Shape{5, 50}, Shape{5, 7}}) {
    for (const bool recurrent : {true, false}) {
      const auto layer = make_layer(C, shape.N, recurrent, 7);
      for (const double density : {0.0, 0.05, 0.3, 1.0}) {
        SCOPED_TRACE(testing::Message() << "B=" << shape.B << " N=" << shape.N
                                        << " recurrent=" << recurrent << " density=" << density);
        expect_sparse_matches_dense(
            layer,
            random_cube(T, shape.B, C, density, 100 + static_cast<int>(density * 100)),
            policy);
      }
    }
  }
}

TEST(SparseForward, MatchesDenseWithAllZeroAndAllOnesTimesteps) {
  const std::size_t T = 8, C = 40;
  const auto policy = snn::ThresholdPolicy::fixed(1.0f);
  for (const Shape shape : {Shape{3, 24}, Shape{5, 50}, Shape{5, 7}}) {
    const std::size_t B = shape.B;
    Tensor x = random_cube(T, B, C, 0.2, 55);
    // Timestep 0 fully silent, timestep 1 fully active: the event list must
    // handle empty rows and full rows without drifting from the dense kernel.
    for (std::size_t i = 0; i < B * C; ++i) {
      x.values()[i] = 0.0f;
      x.values()[B * C + i] = 1.0f;
    }
    for (const bool recurrent : {true, false}) {
      SCOPED_TRACE(testing::Message() << "B=" << B << " N=" << shape.N
                                      << " recurrent=" << recurrent);
      expect_sparse_matches_dense(make_layer(C, shape.N, recurrent, 8), x, policy);
    }
  }
}

TEST(SparseForward, MatchesDenseUnderAdaptivePolicy) {
  const std::size_t T = 12, C = 48;
  // The adaptive controller couples timesteps across the batch: the event
  // path runs one row-parallel dispatch per θ window and feeds observe()
  // after it — still bit-identical.  The intervals cover a rule that never
  // adjusts (0), one-step windows (1), a partial last window (5, 7), exactly
  // one window (12) and a window longer than T (15).
  for (const Shape shape : {Shape{4, 32}, Shape{5, 50}, Shape{5, 7}}) {
    Tensor binary = random_cube(T, shape.B, C, 0.15, 77);
    Tensor graded(T, shape.B, C);
    Rng rng(78);
    for (auto& v : graded.values()) {
      if (rng.bernoulli(0.2)) v = rng.bernoulli(0.5) ? 0.5f : -0.25f;
    }
    for (const bool recurrent : {true, false}) {
      const auto layer = make_layer(C, shape.N, recurrent, 9);
      for (const int interval : {0, 1, 5, 7, 12, 15}) {
        const auto policy =
            snn::ThresholdPolicy::adaptive(static_cast<int>(T), 1.0f, interval);
        for (const Tensor* x : {&binary, &graded}) {
          SCOPED_TRACE(testing::Message()
                       << "B=" << shape.B << " N=" << shape.N << " recurrent=" << recurrent
                       << " interval=" << interval << " graded=" << (x == &graded));
          expect_sparse_matches_dense(layer, *x, policy);
        }
      }
    }
  }
}

TEST(SparseForward, MatchesDenseOnNonBinaryValues) {
  const std::size_t T = 6, C = 32;
  for (const Shape shape : {Shape{3, 20}, Shape{5, 50}, Shape{5, 7}}) {
    Tensor x(T, shape.B, C);
    Rng rng(13);
    // Graded activations (latent insertions are not always 0/1): the event
    // list records values, and the value-weighted accumulation must follow
    // the dense kernel's exact multiply-add order.
    for (auto& v : x.values()) {
      if (!rng.bernoulli(0.2)) continue;
      v = rng.bernoulli(0.5) ? 0.5f : -0.25f;
    }
    SCOPED_TRACE(testing::Message() << "B=" << shape.B << " N=" << shape.N);
    expect_sparse_matches_dense(make_layer(C, shape.N, true, 10), x,
                                snn::ThresholdPolicy::fixed(1.0f));
  }
}

TEST(ThreadIdentity, ForwardBitIdentical) {
  // The size matters: parallel_for keeps a range serial below 2048 units
  // (rows × grain), and a row's grain is 4·N per step of its θ window.  At
  // B = 16, N = 64 even a one-step window is 16·64·4 = 4096 units, so the
  // threads=4 run of both policies (fixed: one window of T steps; adaptive:
  // windows of 5) really forks.  At B = 6, N = 32 a one-step window would be
  // 768 units and never leave the calling thread, checking nothing.
  const std::size_t T = 10, B = 16, C = 48, N = 64;
  const auto layer = make_layer(C, N, true, 15);
  const Tensor x = random_cube(T, B, C, 0.1, 200);
  const int base = num_threads();
  for (const auto& policy : {snn::ThresholdPolicy::fixed(1.0f),
                             snn::ThresholdPolicy::adaptive(static_cast<int>(T))}) {
    snn::LayerCache cache1, cache4;
    snn::SpikeOpStats stats1, stats4;
    set_num_threads(1);
    const Tensor one = layer.forward(x, snn::SpikeMode::kHard, policy, &cache1, &stats1);
    set_num_threads(4);
    const Tensor four = layer.forward(x, snn::SpikeMode::kHard, policy, &cache4, &stats4);
    EXPECT_TRUE(same_bits(one, four));
    EXPECT_TRUE(same_bits(cache1.membrane, cache4.membrane));
    EXPECT_TRUE(same_bits(cache1.spikes, cache4.spikes));
    EXPECT_EQ(cache1.theta, cache4.theta);
    EXPECT_EQ(stats1, stats4);
  }
  set_num_threads(base);
}

TEST(ThreadIdentity, BackwardGradsBitIdentical) {
  const std::size_t T = 10, B = 6, C = 48, N = 32;
  const Tensor x = random_cube(T, B, C, 0.1, 201);
  Tensor d_out(T, B, N);
  Rng rng(19);
  for (auto& v : d_out.values()) v = (static_cast<float>(rng.bernoulli(0.5)) - 0.5f) * 0.1f;
  const auto policy = snn::ThresholdPolicy::fixed(1.0f);
  const int base = num_threads();

  const auto run = [&](int threads, Tensor* d_in) {
    set_num_threads(threads);
    auto layer = make_layer(C, N, true, 16);
    snn::LayerCache cache;
    snn::SpikeOpStats stats;
    (void)layer.forward(x, snn::SpikeMode::kHard, policy, &cache, &stats);
    layer.backward(x, cache, d_out, d_in, &stats);
    return std::make_pair(layer.grad_w_ff(), layer.grad_w_rec());
  };
  Tensor d_in1(T, B, C), d_in4(T, B, C);
  const auto [ff1, rec1] = run(1, &d_in1);
  const auto [ff4, rec4] = run(4, &d_in4);
  set_num_threads(base);
  EXPECT_TRUE(same_bits(ff1, ff4));
  EXPECT_TRUE(same_bits(rec1, rec4));
  EXPECT_TRUE(same_bits(d_in1, d_in4));
}

// -- engine-level identity fixtures -----------------------------------------

// Sized so that every pre-training pass forks at threads=4: parallel_for
// keeps a range serial below 2048 units (rows × grain), and here the 3 base
// classes × 8 samples fill 3 whole batches of B = 8 at T = 16.  The smallest
// pass, the event-list scan of the narrowest input (32 channels over T·B =
// 128 rows), is 4096 units; the last hidden layer's forward (N = 24, one θ
// window of T steps) is B · T·N·4 = 12288.
core::PretrainConfig tiny_pretrain() {
  core::PretrainConfig cfg;
  cfg.network.layer_sizes = {64, 48, 32, 24};
  cfg.network.num_classes = 5;
  cfg.network.seed = 51;
  cfg.data_params.channels = 64;
  cfg.data_params.classes = 5;
  cfg.data_params.timesteps = 16;
  cfg.data_params.seed = 53;
  cfg.split.train_per_class = 8;
  cfg.split.test_per_class = 4;
  cfg.split.replay_per_class = 2;
  cfg.split.seed = 57;
  cfg.epochs = 4;
  cfg.batch_size = 8;
  return cfg;
}

data::SequentialTasks tiny_stream(std::size_t num_tasks) {
  const data::SyntheticShdGenerator gen(tiny_pretrain().data_params);
  return data::build_sequential_tasks(gen, tiny_pretrain().split, num_tasks);
}

snn::SnnNetwork tiny_pretrained(const data::SequentialTasks& tasks) {
  snn::SnnNetwork net(tiny_pretrain().network);
  snn::AdamOptimizer opt;
  snn::TrainOptions opts;
  opts.epochs = tiny_pretrain().epochs;
  opts.batch_size = tiny_pretrain().batch_size;
  (void)snn::train_supervised(net, tasks.pretrain_train, opt, opts);
  return net;
}

core::SequentialRunConfig tiny_run() {
  core::SequentialRunConfig cfg;
  cfg.method = core::NclMethodConfig::replay4ncl(16);
  cfg.method.lr_cl = 5e-4f;
  cfg.method.batch_size = 8;
  cfg.insertion_layer = 1;
  cfg.epochs_per_task = 3;
  cfg.replay_per_new_class = 2;
  return cfg;
}

TEST(ThreadIdentity, SequentialEngineBitIdentical) {
  const auto tasks = tiny_stream(2);
  const int saved = num_threads();
  // Pre-training (train_supervised, every layer learning) at threads 1 and 4.
  set_num_threads(1);
  const snn::SnnNetwork base = tiny_pretrained(tasks);
  set_num_threads(4);
  EXPECT_TRUE(same_weights(all_weights(base), all_weights(tiny_pretrained(tasks))));
  const auto run = [&](int threads, std::vector<float>* weights) {
    snn::SnnNetwork net = base.clone();
    core::SequentialRunConfig cfg = tiny_run();
    cfg.method.threads = threads;
    const auto result = core::run_sequential(net, tasks, cfg);
    *weights = all_weights(net);
    return result;
  };
  std::vector<float> w1, w4;
  const auto r1 = run(1, &w1);
  const auto r4 = run(4, &w4);
  set_num_threads(saved);
  EXPECT_TRUE(same_weights(w1, w4));
  EXPECT_EQ(r1, r4);
}

TEST(BatchScratch, TrainerAllocationsPinnedPerSlot) {
  snn::NetworkConfig ncfg;
  ncfg.layer_sizes = {32, 16, 8};
  ncfg.num_classes = 4;
  ncfg.seed = 71;
  data::Dataset train;
  // 32 samples at batch 8: every minibatch has the same shape, so the
  // trainer allocates its scratch batch exactly once, then reuses it for the
  // whole run no matter how many epochs follow.
  for (std::size_t i = 0; i < 32; ++i) {
    train.push_back({random_raster(10, 32, 0.1, 1500 + i), static_cast<std::int32_t>(i % 4)});
  }
  const auto allocations = [&](std::size_t epochs) {
    snn::SnnNetwork net(ncfg);
    snn::AdamOptimizer opt;
    snn::TrainOptions opts;
    opts.epochs = epochs;
    opts.batch_size = 8;
    const std::uint64_t before = data::batch_tensor_allocations();
    (void)snn::train_supervised(net, train, opt, opts);
    return data::batch_tensor_allocations() - before;
  };
  // More epochs must not add a single allocation.
  EXPECT_EQ(allocations(1), 1u);
  EXPECT_EQ(allocations(3), 1u);
}

// evaluate() scores a dataset through one scratch batch: one allocation for
// the whole sweep.
TEST(BatchScratch, EvaluateSourceMatchesDatasetAndReusesScratch) {
  snn::NetworkConfig ncfg;
  ncfg.layer_sizes = {32, 16, 8};
  ncfg.num_classes = 4;
  ncfg.seed = 73;
  const snn::SnnNetwork net(ncfg);
  data::Dataset test;
  for (std::size_t i = 0; i < 24; ++i) {
    test.push_back({random_raster(10, 32, 0.1, 1700 + i), static_cast<std::int32_t>(i % 4)});
  }
  const std::uint64_t before = data::batch_tensor_allocations();
  (void)snn::evaluate(net, test, 0, snn::ThresholdPolicy::fixed(1.0f), 8);
  // 24 samples at batch 8: three equal-shape batches through one scratch.
  EXPECT_EQ(data::batch_tensor_allocations() - before, 1u);
}

TEST(CliKnobs, NegativeThreadsRejectedEagerly) {
  // Both readers of threads= reject a negative count, and a count that
  // would wrap when narrowed to int (2^32 + 1 would run one worker).
  const int before = num_threads();
  for (const char* value : {"-1", "4294967297"}) {
    core::NclMethodConfig method = core::NclMethodConfig::replay4ncl(16);
    Config cfg;
    cfg.set("threads", value);
    try {
      core::apply_replay_overrides(method, cfg);
      ADD_FAILURE() << "threads=" << value << " must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("non-negative worker count"), std::string::npos);
    }
    try {
      core::init_runtime(cfg);
      ADD_FAILURE() << "init_runtime: threads=" << value << " must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("non-negative worker count"), std::string::npos);
    }
  }
  EXPECT_EQ(num_threads(), before);
}

}  // namespace
}  // namespace r4ncl
