// Hot-path bit-identity contracts: the event-driven forward must reproduce
// the dense kernel bit for bit (outputs, caches AND SpikeOpStats), the
// batch-parallel loops must make threads=N ≡ threads=1, and the trainer/eval
// batch scratch must stay allocation-free after the first minibatch.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "compress/aer.hpp"
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

void expect_same_stats(const snn::SpikeOpStats& a, const snn::SpikeOpStats& b) {
  EXPECT_EQ(a.synops, b.synops);
  EXPECT_EQ(a.neuron_updates, b.neuron_updates);
  EXPECT_EQ(a.spikes, b.spikes);
  EXPECT_EQ(a.timestep_slots, b.timestep_slots);
  EXPECT_EQ(a.backward_synops, b.backward_synops);
  EXPECT_EQ(a.decompress_bits, b.decompress_bits);
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
  expect_same_stats(dense_stats, sparse_stats);
}

snn::RecurrentLifLayer make_layer(std::size_t C, std::size_t n_out, bool recurrent,
                                  std::uint64_t seed) {
  snn::LifParams lif;
  lif.recurrent = recurrent;
  Rng rng(seed);
  return snn::RecurrentLifLayer(C, n_out, lif, snn::SurrogateParams{}, rng);
}

TEST(SparseForward, MatchesDenseAcrossDensities) {
  const std::size_t T = 10, B = 4, C = 48, N = 32;
  const auto policy = snn::ThresholdPolicy::fixed(1.0f);
  for (const bool recurrent : {true, false}) {
    const auto layer = make_layer(C, N, recurrent, 7);
    for (const double density : {0.0, 0.05, 0.3, 1.0}) {
      SCOPED_TRACE(testing::Message() << "recurrent=" << recurrent
                                      << " density=" << density);
      expect_sparse_matches_dense(
          layer, random_cube(T, B, C, density, 100 + static_cast<int>(density * 100)),
          policy);
    }
  }
}

TEST(SparseForward, MatchesDenseWithAllZeroAndAllOnesTimesteps) {
  const std::size_t T = 8, B = 3, C = 40, N = 24;
  Tensor x = random_cube(T, B, C, 0.2, 55);
  // Timestep 0 fully silent, timestep 1 fully active: the event list must
  // handle empty rows and full rows without drifting from the dense kernel.
  for (std::size_t i = 0; i < B * C; ++i) {
    x.values()[i] = 0.0f;
    x.values()[B * C + i] = 1.0f;
  }
  const auto policy = snn::ThresholdPolicy::fixed(1.0f);
  for (const bool recurrent : {true, false}) {
    SCOPED_TRACE(testing::Message() << "recurrent=" << recurrent);
    expect_sparse_matches_dense(make_layer(C, N, recurrent, 8), x, policy);
  }
}

TEST(SparseForward, MatchesDenseUnderAdaptivePolicy) {
  const std::size_t T = 12, B = 4, C = 48, N = 32;
  // The adaptive controller couples timesteps across the batch, which routes
  // the sparse path through its per-timestep loop (observe() feedback) —
  // still bit-identical.
  const auto policy = snn::ThresholdPolicy::adaptive(static_cast<int>(T));
  expect_sparse_matches_dense(make_layer(C, N, true, 9),
                              random_cube(T, B, C, 0.15, 77), policy);
}

TEST(SparseForward, MatchesDenseOnNonBinaryValues) {
  const std::size_t T = 6, B = 3, C = 32, N = 20;
  Tensor x(T, B, C);
  Rng rng(13);
  // Graded activations (latent insertions are not always 0/1): the event
  // list records values, and the value-weighted accumulation must follow the
  // dense kernel's exact multiply-add order.
  for (auto& v : x.values()) {
    if (!rng.bernoulli(0.2)) continue;
    v = rng.bernoulli(0.5) ? 0.5f : -0.25f;
  }
  expect_sparse_matches_dense(make_layer(C, N, true, 10), x,
                              snn::ThresholdPolicy::fixed(1.0f));
}

TEST(SparseForward, EventsFromAerMatchEventsFromBatch) {
  const std::size_t T = 10, B = 5, C = 64, N = 32;
  std::vector<compress::AerRaster> aer;
  Tensor x;
  data::ensure_batch_shape(x, T, B, C);
  for (std::size_t b = 0; b < B; ++b) {
    const data::SpikeRaster r = random_raster(T, C, 0.1, 300 + b);
    data::fill_batch_column(x, b, r);
    aer.push_back(compress::aer_encode(r));
  }
  const compress::BatchEventList from_batch = compress::events_from_batch(x);
  const compress::BatchEventList from_aer = compress::events_from_aer(aer);
  EXPECT_EQ(from_batch.offsets, from_aer.offsets);
  EXPECT_EQ(from_batch.channel, from_aer.channel);
  EXPECT_EQ(from_batch.value, from_aer.value);
  EXPECT_TRUE(from_aer.unit_values);

  // forward_events over the AER-built list ≡ dense forward over the cube.
  const auto layer = make_layer(C, N, true, 11);
  const auto policy = snn::ThresholdPolicy::fixed(1.0f);
  snn::SpikeOpStats dense_stats, event_stats;
  const Tensor dense =
      layer.forward_dense(x, snn::SpikeMode::kHard, policy, nullptr, &dense_stats);
  const Tensor evented =
      layer.forward_events(from_aer, snn::SpikeMode::kHard, policy, &event_stats);
  EXPECT_TRUE(same_bits(dense, evented));
  expect_same_stats(dense_stats, event_stats);
}

TEST(ThreadIdentity, ForwardBitIdentical) {
  const std::size_t T = 10, B = 6, C = 48, N = 32;
  const auto layer = make_layer(C, N, true, 15);
  const Tensor x = random_cube(T, B, C, 0.1, 200);
  const int base = num_threads();
  for (const auto& policy : {snn::ThresholdPolicy::fixed(1.0f),
                             snn::ThresholdPolicy::adaptive(static_cast<int>(T))}) {
    set_num_threads(1);
    const Tensor one = layer.forward(x, snn::SpikeMode::kHard, policy, nullptr, nullptr);
    set_num_threads(4);
    const Tensor four = layer.forward(x, snn::SpikeMode::kHard, policy, nullptr, nullptr);
    EXPECT_TRUE(same_bits(one, four));
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

core::PretrainConfig tiny_pretrain() {
  core::PretrainConfig cfg;
  cfg.network.layer_sizes = {64, 32, 16, 12};
  cfg.network.num_classes = 5;
  cfg.network.seed = 51;
  cfg.data_params.channels = 64;
  cfg.data_params.classes = 5;
  cfg.data_params.timesteps = 16;
  cfg.data_params.seed = 53;
  cfg.split.train_per_class = 6;
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

void expect_same_rows(const core::SequentialRunResult& a,
                      const core::SequentialRunResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].acc_base, b.rows[i].acc_base);
    EXPECT_EQ(a.rows[i].acc_learned, b.rows[i].acc_learned);
    EXPECT_EQ(a.rows[i].acc_current, b.rows[i].acc_current);
    EXPECT_EQ(a.rows[i].latent_memory_bytes, b.rows[i].latent_memory_bytes);
  }
}

TEST(ThreadIdentity, SequentialEngineBitIdentical) {
  const auto tasks = tiny_stream(2);
  const snn::SnnNetwork base = tiny_pretrained(tasks);
  const int saved = num_threads();
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
  expect_same_rows(r1, r4);
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
  snn::SampleSource source;
  source.size = test.size();
  source.fetch = [&test](std::size_t i) -> const data::Sample& { return test[i]; };

  snn::SpikeOpStats dataset_stats, source_stats;
  const double acc_dataset = snn::evaluate(net, test, 0, snn::ThresholdPolicy::fixed(1.0f),
                                           8, &dataset_stats);
  const std::uint64_t before = data::batch_tensor_allocations();
  const double acc_source = snn::evaluate(net, source, 0, snn::ThresholdPolicy::fixed(1.0f),
                                          8, &source_stats);
  const std::uint64_t delta = data::batch_tensor_allocations() - before;
  EXPECT_EQ(acc_dataset, acc_source);
  expect_same_stats(dataset_stats, source_stats);
  // 24 samples at batch 8: three equal-shape batches through one scratch.
  EXPECT_EQ(delta, 1u);
}

TEST(CliKnobs, NegativeThreadsRejectedEagerly) {
  core::NclMethodConfig method = core::NclMethodConfig::replay4ncl(16);
  Config cfg;
  cfg.set("threads", "-1");
  try {
    core::apply_replay_overrides(method, cfg);
    FAIL() << "threads=-1 must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-negative worker count"), std::string::npos);
  }
}

}  // namespace
}  // namespace r4ncl
