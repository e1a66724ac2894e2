// Capacity-bounded replay buffer: eviction/selection policies, byte-budget
// invariants, sampling statistics, and stream determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/pretrain.hpp"
#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {
namespace {

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double p, std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(p) ? 1 : 0;
  return r;
}

/// Stored bytes of one raw entry of the given geometry.
std::size_t probe_entry_bytes(std::size_t T, std::size_t C) {
  LatentReplayBuffer probe({.ratio = 1}, T);
  probe.add(random_raster(T, C, 0.3, 1), 0);
  return probe.memory_bytes();
}

// ---------------------------------------------------------------------------
// Policy plumbing
// ---------------------------------------------------------------------------

TEST(ReplayPolicy, NamesRoundTrip) {
  for (const ReplayPolicy p : {ReplayPolicy::kFifo, ReplayPolicy::kReservoir,
                               ReplayPolicy::kClassBalanced}) {
    EXPECT_EQ(parse_replay_policy(to_string(p)), p);
  }
  EXPECT_EQ(parse_replay_policy("balanced"), ReplayPolicy::kClassBalanced);
  EXPECT_THROW((void)parse_replay_policy("lru"), Error);
}

TEST(ReplayPolicy, UnboundedBufferNeverEvicts) {
  LatentReplayBuffer buf({.ratio = 1}, 8);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(buf.add(random_raster(8, 16, 0.3, 100 + i), i % 4));
  }
  EXPECT_EQ(buf.size(), 32u);
  EXPECT_EQ(buf.evictions(), 0u);
  EXPECT_EQ(buf.stream_seen(), 32u);
}

TEST(ReplayPolicy, RejectsCapacityBelowOneEntry) {
  const std::size_t entry = probe_entry_bytes(8, 16);
  LatentReplayBuffer buf({.ratio = 1}, 8, {.capacity_bytes = entry - 1});
  EXPECT_THROW((void)buf.add(random_raster(8, 16, 0.3, 1), 0), Error);
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

TEST(ReplayPolicy, FifoEvictsOldestAndHoldsBudget) {
  const std::size_t entry = probe_entry_bytes(8, 16);
  const ReplayBufferConfig budget{.capacity_bytes = 4 * entry,
                                  .policy = ReplayPolicy::kFifo};
  LatentReplayBuffer buf({.ratio = 1}, 8, budget);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(buf.add(random_raster(8, 16, 0.3, 200 + i), i));
    EXPECT_LE(buf.memory_bytes(), budget.capacity_bytes) << "after add " << i;
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.evictions(), 6u);
  EXPECT_EQ(buf.stream_seen(), 10u);
  const data::Dataset ds = buf.materialize();
  ASSERT_EQ(ds.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ds[static_cast<std::size_t>(i)].label, 6 + i);
}

// ---------------------------------------------------------------------------
// Reservoir: stream-uniform retention (the statistical satellite)
// ---------------------------------------------------------------------------

TEST(ReplayPolicy, ReservoirRetentionIsUniformChiSquared) {
  // Stream N = 64 >> capacity K = 8 entries; over repeated independent
  // eviction seeds every stream position must be retained equally often.
  // Label i marks stream position i, so the final occupancy is the retained
  // set.  With 240 trials the expected retention count per position is
  // 240*8/64 = 30; the chi-squared statistic over 63 dof has mean 63,
  // sd ~11.2 — we bound at 110 (~p = 2e-4), generous but damning for any
  // biased scheme (pure FIFO scores thousands).
  constexpr std::size_t kStream = 64;
  constexpr std::size_t kCapacity = 8;
  constexpr int kTrials = 240;
  const std::size_t entry = probe_entry_bytes(4, 8);
  std::vector<int> retained(kStream, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    ReplayBufferConfig budget{.capacity_bytes = kCapacity * entry,
                              .policy = ReplayPolicy::kReservoir,
                              .seed = 0xC0FFEE + static_cast<std::uint64_t>(trial)};
    LatentReplayBuffer buf({.ratio = 1}, 4, budget);
    for (std::size_t i = 0; i < kStream; ++i) {
      (void)buf.add(random_raster(4, 8, 0.3, i), static_cast<std::int32_t>(i));
      ASSERT_LE(buf.memory_bytes(), budget.capacity_bytes);
    }
    ASSERT_EQ(buf.size(), kCapacity);
    for (const auto& [label, count] : buf.class_occupancy()) {
      ASSERT_EQ(count, 1u);
      retained[static_cast<std::size_t>(label)] += 1;
    }
  }
  const double expected = static_cast<double>(kTrials * kCapacity) / kStream;
  double chi2 = 0.0;
  for (const int c : retained) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 110.0) << "reservoir retention deviates from uniform";
  // Every stream position must be reachable at all.
  EXPECT_GT(*std::min_element(retained.begin(), retained.end()), 0);
}

// ---------------------------------------------------------------------------
// Class-balanced
// ---------------------------------------------------------------------------

TEST(ReplayPolicy, ClassBalancedConvergesToEqualCounts) {
  // Heavily skewed stream: 40 entries of class 0, then 10 each of 1..3.
  // With room for 12 entries the final occupancy must be 3 per class (±1),
  // the skew absorbed by evicting from whichever class is heaviest.
  const std::size_t entry = probe_entry_bytes(6, 12);
  const ReplayBufferConfig budget{.capacity_bytes = 12 * entry,
                                  .policy = ReplayPolicy::kClassBalanced};
  LatentReplayBuffer buf({.ratio = 1}, 6, budget);
  std::vector<std::int32_t> stream(40, 0);
  for (std::int32_t c = 1; c <= 3; ++c) stream.insert(stream.end(), 10, c);
  std::uint64_t salt = 0;
  for (const std::int32_t label : stream) {
    EXPECT_TRUE(buf.add(random_raster(6, 12, 0.3, ++salt), label));
    EXPECT_LE(buf.memory_bytes(), budget.capacity_bytes);
  }
  const auto occupancy = buf.class_occupancy();
  ASSERT_EQ(occupancy.size(), 4u);
  std::size_t total = 0, lo = occupancy.front().second, hi = lo;
  for (const auto& [label, count] : occupancy) {
    total += count;
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  EXPECT_EQ(total, buf.size());
  EXPECT_LE(hi - lo, 1u) << "per-class counts must stay within +-1";
}

// ---------------------------------------------------------------------------
// The per-epoch draw (the run engines' single-shard store): draw statistics
// and decompression accounting
// ---------------------------------------------------------------------------

/// sample_into() into a fresh dataset: the draw decoded up front.
data::Dataset sample(const ShardedReplayEngine& store, std::size_t k, Rng& rng,
                     snn::SpikeOpStats* stats = nullptr) {
  data::Dataset out;
  (void)store.sample_into(k, rng, out, stats);
  return out;
}

TEST(ReplayPolicy, SampleDrawsDistinctEntriesAndFallsBackToMaterialize) {
  ShardedReplayEngine buf({.ratio = 1}, 8);
  for (int i = 0; i < 10; ++i) buf.add(random_raster(8, 16, 0.3, 300 + i), i);
  Rng rng(99);
  const data::Dataset drawn = sample(buf, 4, rng);
  ASSERT_EQ(drawn.size(), 4u);
  std::vector<std::int32_t> labels;
  for (const auto& s : drawn) labels.push_back(s.label);
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(std::adjacent_find(labels.begin(), labels.end()), labels.end())
      << "the draw must be without replacement";
  // k >= size degenerates to the full buffer in storage order.
  const data::Dataset all = sample(buf, 10, rng);
  const data::Dataset full = buf.materialize();
  ASSERT_EQ(all.size(), full.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].raster, full[i].raster);
    EXPECT_EQ(all[i].label, full[i].label);
  }
}

TEST(ReplayPolicy, SampleChargesDecompressBitsProportionally) {
  ShardedReplayEngine buf({.ratio = 2}, 20);
  for (int i = 0; i < 10; ++i) buf.add(random_raster(20, 16, 0.3, 400 + i), i);
  snn::SpikeOpStats full_stats, sample_stats;
  (void)buf.materialize(&full_stats);
  Rng rng(7);
  (void)sample(buf, 3, rng, &sample_stats);
  ASSERT_GT(full_stats.decompress_bits, 0u);
  // Equal-geometry entries: 3 of 10 drawn => exactly 3/10 of the codec work.
  EXPECT_EQ(sample_stats.decompress_bits * 10, full_stats.decompress_bits * 3);
}

TEST(ReplayPolicy, SampleCoversEveryEntryOverManyDraws) {
  ShardedReplayEngine buf({.ratio = 1}, 4);
  for (int i = 0; i < 12; ++i) buf.add(random_raster(4, 8, 0.3, 500 + i), i);
  Rng rng(11);
  std::vector<int> seen(12, 0);
  for (int draw = 0; draw < 60; ++draw) {
    for (const auto& s : sample(buf, 3, rng)) seen[static_cast<std::size_t>(s.label)] += 1;
  }
  EXPECT_GT(*std::min_element(seen.begin(), seen.end()), 0)
      << "some entry was never sampled in 60 draws of 3/12";
}

// ---------------------------------------------------------------------------
// Determinism of the RNG plumbing
// ---------------------------------------------------------------------------

TEST(ReplayPolicy, IdenticalSeedsGiveByteIdenticalBuffers) {
  const std::size_t entry = probe_entry_bytes(6, 16);
  const ReplayBufferConfig budget{.capacity_bytes = 6 * entry,
                                  .policy = ReplayPolicy::kReservoir,
                                  .seed = 0xABCD};
  LatentReplayBuffer a({.ratio = 1}, 6, budget);
  LatentReplayBuffer b({.ratio = 1}, 6, budget);
  for (int i = 0; i < 40; ++i) {
    const auto r = random_raster(6, 16, 0.3, 600 + i);
    (void)a.add(r, i % 5);
    (void)b.add(r, i % 5);
  }
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  EXPECT_EQ(a.evictions(), b.evictions());
  const data::Dataset da = a.materialize();
  const data::Dataset db = b.materialize();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].raster, db[i].raster);
    EXPECT_EQ(da[i].label, db[i].label);
  }
}

// ---------------------------------------------------------------------------
// Integration: budgeted sequential streams
// ---------------------------------------------------------------------------

/// Tiny 6-class scenario (geometry of test_sequential) for 2-task streams.
PretrainConfig small_config() {
  PretrainConfig cfg;
  cfg.network.layer_sizes = {96, 48, 24, 12};
  cfg.network.num_classes = 6;
  cfg.network.seed = 31;
  cfg.data_params.channels = 96;
  cfg.data_params.classes = 6;
  cfg.data_params.timesteps = 24;
  cfg.data_params.ridge_width = 5.0;
  cfg.data_params.position_pool = 8;
  cfg.data_params.background_rate = 0.004;
  cfg.data_params.rate_jitter = 0.08;
  cfg.data_params.channel_jitter = 1.5;
  cfg.data_params.time_jitter = 1.0;
  cfg.data_params.seed = 37;
  cfg.split.train_per_class = 14;
  cfg.split.test_per_class = 5;
  cfg.split.replay_per_class = 3;
  cfg.split.seed = 41;
  cfg.epochs = 30;
  cfg.batch_size = 8;
  return cfg;
}

/// Wider 12-class scenario for the 10-task long stream (base = 2 classes).
PretrainConfig wide_config() {
  PretrainConfig cfg = small_config();
  cfg.network.num_classes = 12;
  cfg.data_params.classes = 12;
  cfg.split.test_per_class = 8;
  cfg.split.replay_per_class = 2;
  return cfg;
}

snn::SnnNetwork pretrain_on_base(const PretrainConfig& pc,
                                 const data::SequentialTasks& tasks) {
  snn::SnnNetwork net(pc.network);
  snn::AdamOptimizer opt;
  snn::TrainOptions opts;
  opts.epochs = pc.epochs;
  opts.batch_size = pc.batch_size;
  (void)snn::train_supervised(net, tasks.pretrain_train, opt, opts);
  return net;
}

SequentialRunConfig stream_run() {
  SequentialRunConfig cfg;
  cfg.method = NclMethodConfig::replay4ncl(12);
  cfg.method.lr_cl = 5e-4f;
  cfg.method.batch_size = 8;
  cfg.insertion_layer = 1;
  cfg.epochs_per_task = 6;
  cfg.replay_per_new_class = 4;
  return cfg;
}

TEST(BudgetedSequentialRun, TenTaskStreamHoldsThreeTaskBudget) {
  // Acceptance scenario: a 10-task stream whose buffer budget is frozen at
  // the 3-task footprint.  The budget must hold after every task for all
  // three policies, and the selective policies (reservoir, class-balanced)
  // must stay within 5 accuracy points of the unbounded run.  Accuracy is
  // compared on acc_learned smoothed over the last three tasks and averaged
  // over two run seeds — a single final-row comparison at this scale is
  // dominated by per-run jitter, not selection quality.
  const PretrainConfig pc = wide_config();
  const data::SyntheticShdGenerator gen(pc.data_params);
  const data::SequentialTasks tasks = data::build_sequential_tasks(gen, pc.split, 10);
  const snn::SnnNetwork pretrained = pretrain_on_base(pc, tasks);

  SequentialRunConfig run = stream_run();
  run.epochs_per_task = 30;
  run.replay_per_new_class = 16;
  // Fix the per-epoch replay draw so every run trains on the same replay
  // volume: the comparison then isolates *what* each policy retained.
  run.method.replay_samples_per_epoch = 40;
  constexpr std::uint64_t kSeeds[] = {4242, 77};

  auto run_with = [&](std::size_t capacity, ReplayPolicy policy, std::uint64_t seed) {
    snn::SnnNetwork net = pretrained.clone();
    SequentialRunConfig bounded = run;
    bounded.seed = seed;
    bounded.method.replay_budget.capacity_bytes = capacity;
    bounded.method.replay_budget.policy = policy;
    return run_sequential(net, tasks, bounded);
  };
  auto last3 = [](const SequentialRunResult& res) {
    double sum = 0.0;
    for (std::size_t i = res.rows.size() - 3; i < res.rows.size(); ++i) {
      sum += res.rows[i].acc_learned;
    }
    return sum / 3.0;
  };

  double unbounded_acc = 0.0;
  std::size_t budget = 0;
  for (const std::uint64_t seed : kSeeds) {
    const SequentialRunResult unbounded = run_with(0, ReplayPolicy::kFifo, seed);
    ASSERT_EQ(unbounded.rows.size(), 10u);
    budget = unbounded.rows[2].latent_memory_bytes;  // 3-task footprint
    ASSERT_LT(budget, unbounded.rows.back().latent_memory_bytes)
        << "unbounded stream must outgrow the 3-task footprint";
    unbounded_acc += last3(unbounded) / std::size(kSeeds);
  }

  for (const ReplayPolicy policy : {ReplayPolicy::kFifo, ReplayPolicy::kReservoir,
                                    ReplayPolicy::kClassBalanced}) {
    double policy_acc = 0.0;
    for (const std::uint64_t seed : kSeeds) {
      const SequentialRunResult res = run_with(budget, policy, seed);
      ASSERT_EQ(res.rows.size(), 10u);
      for (const auto& row : res.rows) {
        EXPECT_LE(row.latent_memory_bytes, budget)
            << to_string(policy) << " exceeded the budget at task " << row.task_index;
      }
      EXPECT_GT(res.rows.back().buffer_evictions, 0u)
          << to_string(policy) << " never evicted on a 10-task stream";
      policy_acc += last3(res) / std::size(kSeeds);
    }
    if (policy != ReplayPolicy::kFifo) {
      EXPECT_GE(policy_acc, unbounded_acc - 0.05)
          << to_string(policy) << " lost more than 5 points vs unbounded";
    }
  }
}

TEST(BudgetedSequentialRun, SampledReplayMatchesMaterializeAccuracy) {
  // A k-entry draw replaces the whole store on the per-epoch hot path;
  // training outcomes must be statistically indistinguishable, and the
  // sampled run must not cost more (it decompresses and trains on less).
  const PretrainConfig pc = small_config();
  const data::SyntheticShdGenerator gen(pc.data_params);
  const data::SequentialTasks tasks = data::build_sequential_tasks(gen, pc.split, 2);
  const snn::SnnNetwork pretrained = pretrain_on_base(pc, tasks);

  SequentialRunConfig run = stream_run();
  run.epochs_per_task = 30;
  auto run_with = [&](std::size_t samples_per_epoch) {
    snn::SnnNetwork net = pretrained.clone();
    SequentialRunConfig cfg = run;
    cfg.method.replay_samples_per_epoch = samples_per_epoch;
    return run_sequential(net, tasks, cfg);
  };

  const SequentialRunResult full = run_with(0);
  // Buffer holds 4 base classes x 3 + up to 2 x 4 task entries; drawing 10
  // per epoch halves the steady-state replay work per epoch.
  const SequentialRunResult sampled = run_with(10);
  EXPECT_NEAR(sampled.rows.back().acc_learned, full.rows.back().acc_learned, 0.1)
      << "sampled replay diverged from full materialization";
  EXPECT_GT(sampled.rows.back().acc_learned, 0.45);
  EXPECT_LT(sampled.total_latency_ms, full.total_latency_ms)
      << "sampling fewer replay entries must not cost more";
}

TEST(BudgetedSequentialRun, IdenticalSeedsReproduceRunExactly) {
  // Guards the new RNG plumbing: budgeted eviction + per-epoch sampling must
  // not introduce any nondeterminism across identical runs.
  const PretrainConfig pc = small_config();
  const data::SyntheticShdGenerator gen(pc.data_params);
  const data::SequentialTasks tasks = data::build_sequential_tasks(gen, pc.split, 2);
  const snn::SnnNetwork pretrained = pretrain_on_base(pc, tasks);

  SequentialRunConfig run = stream_run();
  run.epochs_per_task = 4;
  run.method.replay_budget.capacity_bytes = 16 * probe_entry_bytes(12, 48);
  run.method.replay_budget.policy = ReplayPolicy::kReservoir;
  run.method.replay_samples_per_epoch = 6;

  auto run_once = [&]() {
    snn::SnnNetwork net = pretrained.clone();
    return run_sequential(net, tasks, run);
  };
  const SequentialRunResult a = run_once();
  const SequentialRunResult b = run_once();
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].acc_base, b.rows[i].acc_base);
    EXPECT_EQ(a.rows[i].acc_learned, b.rows[i].acc_learned);
    EXPECT_EQ(a.rows[i].acc_current, b.rows[i].acc_current);
    EXPECT_EQ(a.rows[i].latent_memory_bytes, b.rows[i].latent_memory_bytes);
    EXPECT_EQ(a.rows[i].buffer_entries, b.rows[i].buffer_entries);
    EXPECT_EQ(a.rows[i].buffer_evictions, b.rows[i].buffer_evictions);
    EXPECT_EQ(a.rows[i].latency_ms, b.rows[i].latency_ms);
  }
  EXPECT_EQ(a.total_latency_ms, b.total_latency_ms);
  EXPECT_EQ(a.total_energy_uj, b.total_energy_uj);
}

}  // namespace
}  // namespace r4ncl::core
