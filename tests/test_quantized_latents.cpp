// Sub-byte quantized latent replays: quantizer/packing property tests,
// storage-footprint guarantees, the capacity-multiplication statistic, and
// end-to-end determinism of quantized budgeted streams.
//
// The legacy (latent_bits == 0) expectations pinned here are the PR 2
// baselines: stored-byte layouts and payload identities that budgeted-replay
// results were recorded against — they must never drift.
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

constexpr unsigned kDepths[] = {1, 2, 4, 8};

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double p, std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(p) ? 1 : 0;
  return r;
}

/// Spikes of `raster` in channel c over source group tc (codec ratio r).
std::uint32_t group_count(const data::SpikeRaster& raster, std::size_t tc, std::size_t c,
                          std::uint32_t ratio) {
  const std::size_t lo = tc * ratio;
  const std::size_t hi = std::min<std::size_t>(lo + ratio, raster.timesteps);
  std::uint32_t count = 0;
  for (std::size_t t = lo; t < hi; ++t) count += raster.bits[t * raster.channels + c];
  return count;
}

// ---------------------------------------------------------------------------
// Packing: multi-bit elements through PackedRaster
// ---------------------------------------------------------------------------

TEST(QuantizedLatents, PackElementsRoundTripsExactlyAtEveryDepth) {
  Rng rng(17);
  for (const unsigned bits : kDepths) {
    const unsigned mask = (1u << bits) - 1u;
    std::vector<std::uint8_t> values(9 * 21);
    for (auto& v : values) v = static_cast<std::uint8_t>(rng.uniform_index(mask + 1));
    const compress::PackedRaster packed = compress::pack_elements(values, 9, 21, bits);
    EXPECT_EQ(packed.bits_per_element, bits);
    EXPECT_EQ(packed.payload_bytes(), 9u * ((21u * bits + 7u) / 8u));
    EXPECT_EQ(compress::unpack_elements(packed), values);
  }
}

TEST(QuantizedLatents, PackElementsRejectsOutOfRangeValues) {
  const std::vector<std::uint8_t> values = {0, 1, 2, 3};  // 3 needs 2 bits
  EXPECT_THROW((void)compress::pack_elements(values, 2, 2, 1), Error);
  EXPECT_THROW((void)compress::pack_elements(values, 2, 2, 3), Error);  // bad depth
  const auto packed = compress::pack_elements(values, 2, 2, 2);
  EXPECT_EQ(compress::unpack_elements(packed), values);
}

// ---------------------------------------------------------------------------
// The count quantizer: exactness, idempotence, error bound (exhaustive)
// ---------------------------------------------------------------------------

TEST(QuantizedLatents, QuantizerIsExactWhenLevelsCoverTheRange) {
  // 2^bits - 1 >= ratio makes the quantizer injective: 8 bits is lossless
  // for every supported ratio, 4 bits up to ratio 15, 2 bits up to 3.
  for (const unsigned bits : kDepths) {
    const std::uint32_t levels = (1u << bits) - 1u;
    for (std::uint32_t ratio = 1; ratio <= std::min<std::uint32_t>(levels, 255); ++ratio) {
      for (std::uint32_t c = 0; c <= ratio; ++c) {
        EXPECT_EQ(compress::dequantize_count(compress::quantize_count(c, ratio, bits),
                                             ratio, bits),
                  c)
            << "bits=" << bits << " ratio=" << ratio << " count=" << c;
      }
    }
  }
}

TEST(QuantizedLatents, QuantizerIsIdempotentAtEveryDepth) {
  // dequantize lands on a codebook point: re-quantizing must return the same
  // level, for every depth and every ratio (exhaustive over counts).
  for (const unsigned bits : kDepths) {
    for (std::uint32_t ratio = 1; ratio <= 64; ++ratio) {
      for (std::uint32_t c = 0; c <= ratio; ++c) {
        const std::uint32_t level = compress::quantize_count(c, ratio, bits);
        const std::uint32_t rec = compress::dequantize_count(level, ratio, bits);
        ASSERT_LE(rec, ratio);
        EXPECT_EQ(compress::quantize_count(rec, ratio, bits), level)
            << "bits=" << bits << " ratio=" << ratio << " count=" << c;
      }
    }
  }
}

TEST(QuantizedLatents, QuantizerErrorIsBoundedByHalfAnLsb) {
  // |count - reconstruction| <= LSB/2 (LSB = ratio / (2^bits - 1)) plus the
  // half-count slack of rounding reconstructions to whole spikes.
  for (const unsigned bits : kDepths) {
    const double levels = static_cast<double>((1u << bits) - 1u);
    for (std::uint32_t ratio = 1; ratio <= 64; ++ratio) {
      const double bound = static_cast<double>(ratio) / (2.0 * levels) + 0.5;
      for (std::uint32_t c = 0; c <= ratio; ++c) {
        const std::uint32_t rec = compress::dequantize_count(
            compress::quantize_count(c, ratio, bits), ratio, bits);
        EXPECT_LE(std::fabs(static_cast<double>(c) - static_cast<double>(rec)), bound)
            << "bits=" << bits << " ratio=" << ratio << " count=" << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Codec round trips through the packed payload
// ---------------------------------------------------------------------------

TEST(QuantizedLatents, EightBitRoundTripPreservesEveryGroupCount) {
  // At 8 bits every group count (ratio <= 255) survives exactly, so the
  // round trip loses only within-group spike positions — total and per-group
  // spike counts are identical and retention is exactly 1.
  for (const std::uint32_t ratio : {1u, 2u, 5u, 16u}) {
    const compress::CodecConfig cfg{.ratio = ratio, .latent_bits = 8};
    const data::SpikeRaster r = random_raster(48, 13, 0.3, 900 + ratio);
    const compress::PackedRaster packed = compress::compress_packed(r, cfg);
    const data::SpikeRaster round = compress::decompress_packed(packed, 48, cfg);
    for (std::size_t tc = 0; tc < packed.timesteps; ++tc) {
      for (std::size_t c = 0; c < r.channels; ++c) {
        ASSERT_EQ(group_count(round, tc, c, ratio), group_count(r, tc, c, ratio))
            << "ratio=" << ratio << " group=" << tc << " channel=" << c;
      }
    }
    EXPECT_DOUBLE_EQ(compress::spike_retention(r, cfg), 1.0);
    // Ratio 1 has nothing to regroup: the raster itself round-trips exactly.
    if (ratio == 1) {
      EXPECT_EQ(round, r);
    }
  }
}

TEST(QuantizedLatents, CodecRoundTripIsIdempotentAtEveryDepth) {
  // One round trip canonicalises (quantized counts at group-leading slots);
  // a second must be the identity — payload and raster fixed points — even
  // when the last group is a partial tail (T not divisible by ratio).
  Rng rng(23);
  for (const unsigned bits : kDepths) {
    for (const std::uint32_t ratio : {1u, 2u, 3u, 5u, 16u}) {
      for (const std::size_t T : {std::size_t{20}, std::size_t{21}}) {
        const compress::CodecConfig cfg{.ratio = ratio,
                                        .latent_bits = static_cast<std::uint8_t>(bits)};
        data::SpikeRaster r(T, 9);
        for (auto& b : r.bits) b = rng.bernoulli(0.35) ? 1 : 0;
        const compress::PackedRaster p1 = compress::compress_packed(r, cfg);
        const data::SpikeRaster d1 = compress::decompress_packed(p1, T, cfg);
        const compress::PackedRaster p2 = compress::compress_packed(d1, cfg);
        const data::SpikeRaster d2 = compress::decompress_packed(p2, T, cfg);
        EXPECT_EQ(p2.payload, p1.payload)
            << "bits=" << bits << " ratio=" << ratio << " T=" << T;
        EXPECT_EQ(d2, d1) << "bits=" << bits << " ratio=" << ratio << " T=" << T;
      }
    }
  }
}

TEST(QuantizedLatents, LegacyConfigStaysBitIdenticalToBinaryPath) {
  // latent_bits == 0 must produce byte-for-byte the PR 2 payloads.
  const data::SpikeRaster r = random_raster(24, 17, 0.3, 1234);
  for (const std::uint32_t ratio : {1u, 2u, 4u}) {
    const compress::CodecConfig legacy{.ratio = ratio};
    ASSERT_FALSE(legacy.quantized());
    const compress::PackedRaster packed = compress::compress_packed(r, legacy);
    EXPECT_EQ(packed.bits_per_element, 1);
    EXPECT_EQ(packed.payload, compress::pack(compress::compress(r, legacy)).payload);
  }
}

// ---------------------------------------------------------------------------
// Storage footprint: stored_bytes shrinks proportionally with depth
// ---------------------------------------------------------------------------

TEST(QuantizedLatents, StoredBytesShrinkProportionallyWithDepth) {
  // C = 48 keeps every depth free of row padding, so payloads are exactly
  // proportional: T*C bits at depth 1, times the depth otherwise.
  constexpr std::size_t T = 12, C = 48;
  const data::SpikeRaster r = random_raster(T, C, 0.3, 55);
  std::size_t expected_payload[9] = {};
  expected_payload[1] = T * C / 8;
  for (const unsigned bits : kDepths) {
    const compress::CodecConfig cfg{.ratio = 1,
                                    .latent_bits = static_cast<std::uint8_t>(bits)};
    LatentReplayBuffer buf(cfg, T);
    ASSERT_TRUE(buf.add(r, 0));
    const std::size_t payload = T * C * bits / 8;
    EXPECT_EQ(buf.memory_bytes(), payload + 24u) << "bits=" << bits;
    if (bits > 1) {
      EXPECT_EQ(payload, expected_payload[1] * bits) << "bits=" << bits;
    }
  }
  // PR 2 baseline layouts, pinned: raw binary entries cost row-padded bits
  // plus a 16-byte header; ratio-2 codec entries add the 8-byte codec header.
  LatentReplayBuffer raw({.ratio = 1}, T);
  raw.add(r, 0);
  EXPECT_EQ(raw.memory_bytes(), T * ((C + 7) / 8) + 16u);
  LatentReplayBuffer codec({.ratio = 2}, T);
  codec.add(r, 0);
  EXPECT_EQ(codec.memory_bytes(), (T / 2) * ((C + 7) / 8) + 24u);
}

TEST(QuantizedLatents, QuantizedSampleChargesDecompressBitsProportionally) {
  // A k-entry draw must charge exactly k/n of materialize()'s codec work, and
  // a 4-bit store must charge half the bits of the 8-bit one.
  auto charge = [](std::uint8_t bits, std::size_t draw) {
    const compress::CodecConfig cfg{.ratio = 1, .latent_bits = bits};
    ShardedReplayEngine buf(cfg, 12);
    for (int i = 0; i < 10; ++i) buf.add(random_raster(12, 48, 0.3, 700 + i), i);
    snn::SpikeOpStats stats;
    if (draw == 0) {
      (void)buf.materialize(&stats);
    } else {
      Rng rng(5);
      data::Dataset out;
      (void)buf.sample_into(draw, rng, out, &stats);
    }
    return stats.decompress_bits;
  };
  const auto full8 = charge(8, 0);
  ASSERT_GT(full8, 0u);
  EXPECT_EQ(charge(8, 3) * 10, full8 * 3);
  EXPECT_EQ(charge(4, 0) * 2, full8);
  EXPECT_EQ(charge(4, 3) * 20, full8 * 3);
}

// ---------------------------------------------------------------------------
// The capacity statistic: 4 bits holds ~2x the entries of 8 bits
// ---------------------------------------------------------------------------

TEST(QuantizedLatents, FourBitBudgetHoldsTwiceTheEntriesOfEightBit) {
  // Same stream, same capacity_bytes, same reservoir policy — only the
  // stored depth differs.  Depth 4 must retain ~2x the entries of depth 8
  // (within [1.9, 2.1]: headers keep it just under exactly 2x), and the
  // retained set must stay stream-uniform across eviction seeds.
  constexpr std::size_t T = 12, C = 48, kStream = 120;
  const std::size_t capacity = 15000;
  auto fill = [&](std::uint8_t bits, std::uint64_t seed) {
    const compress::CodecConfig cfg{.ratio = 1, .latent_bits = bits};
    LatentReplayBuffer buf(cfg, T,
                           {.capacity_bytes = capacity,
                            .policy = ReplayPolicy::kReservoir,
                            .seed = seed});
    for (std::size_t i = 0; i < kStream; ++i) {
      (void)buf.add(random_raster(T, C, 0.3, 2000 + i), static_cast<std::int32_t>(i % 6));
      EXPECT_LE(buf.memory_bytes(), capacity);
    }
    return buf;
  };
  std::size_t entries8 = 0, entries4 = 0;
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const auto buf8 = fill(8, seed);
    const auto buf4 = fill(4, seed);
    // Equal-geometry entries: the resident count is capacity-determined and
    // must not vary with the eviction seed.
    if (entries8 == 0) {
      entries8 = buf8.size();
      entries4 = buf4.size();
    }
    EXPECT_EQ(buf8.size(), entries8);
    EXPECT_EQ(buf4.size(), entries4);
    EXPECT_GT(buf8.evictions(), 0u);
    EXPECT_GT(buf4.evictions(), 0u);
  }
  const double gain =
      static_cast<double>(entries4) / static_cast<double>(entries8);
  EXPECT_GE(gain, 1.9) << entries4 << " vs " << entries8;
  EXPECT_LE(gain, 2.1) << entries4 << " vs " << entries8;
  // And depth 2 stretches further still.
  const auto buf2 = fill(2, 11);
  EXPECT_GT(buf2.size(), entries4);
}

// ---------------------------------------------------------------------------
// End-to-end: quantized budgeted streams through the sequential engine
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

TEST(QuantizedSequentialRun, IdenticalSeedsReproduceQuantizedRunExactly) {
  // The end-to-end determinism satellite: identical seeds + latent_bits must
  // produce byte-identical accuracy traces through eviction, quantization
  // and per-epoch sampling.
  const PretrainConfig pc = small_config();
  const data::SyntheticShdGenerator gen(pc.data_params);
  const data::SequentialTasks tasks = data::build_sequential_tasks(gen, pc.split, 2);
  const snn::SnnNetwork pretrained = pretrain_on_base(pc, tasks);

  SequentialRunConfig run = stream_run();
  run.epochs_per_task = 4;
  run.method = run.method.with_latent_bits(2);
  {
    LatentReplayBuffer probe(run.method.storage_codec, run.method.cl_timesteps);
    probe.add(data::SpikeRaster(run.method.cl_timesteps, 48), 0);
    run.method.replay_budget.capacity_bytes = 16 * probe.memory_bytes();
  }
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

TEST(QuantizedSequentialRun, FourBitTenTaskStreamMatchesEightBitAccuracy) {
  // The acceptance scenario: a 10-task stream under one fixed capacity_bytes
  // sized to starve the 8-bit configuration (the 8-bit 3-task demand).  At
  // 4 bits the same budget must hold >= 1.9x the entries, and the final
  // average stream accuracy must stay within 2 points of the 8-bit
  // (full-precision: ratio 1 makes 8-bit storage lossless) run.  Accuracy is
  // smoothed over the last three tasks and averaged over two run seeds, as
  // in the PR 2 budget acceptance test.
  const PretrainConfig pc = wide_config();
  const data::SyntheticShdGenerator gen(pc.data_params);
  const data::SequentialTasks tasks = data::build_sequential_tasks(gen, pc.split, 10);
  const snn::SnnNetwork pretrained = pretrain_on_base(pc, tasks);

  SequentialRunConfig run = stream_run();
  run.epochs_per_task = 30;
  run.replay_per_new_class = 14;  // = train_per_class: every sample recorded
  run.method.replay_samples_per_epoch = 40;
  run.method.replay_budget.policy = ReplayPolicy::kReservoir;

  // 8-bit per-entry cost at the insertion geometry (T* = 12, width 48).
  std::size_t entry8 = 0;
  {
    LatentReplayBuffer probe(run.method.with_latent_bits(8).storage_codec,
                             run.method.cl_timesteps);
    probe.add(data::SpikeRaster(run.method.cl_timesteps, 48), 0);
    entry8 = probe.memory_bytes();
  }
  // 8-bit demand after three tasks: the base latents plus three recordings.
  const std::size_t capacity =
      entry8 * (tasks.replay_subset.size() + 3 * run.replay_per_new_class);

  auto run_with = [&](std::uint8_t bits, std::uint64_t seed) {
    snn::SnnNetwork net = pretrained.clone();
    SequentialRunConfig bounded = run;
    bounded.seed = seed;
    bounded.method = run.method.with_latent_bits(bits);
    bounded.method.replay_budget.capacity_bytes = capacity;
    return run_sequential(net, tasks, bounded);
  };
  auto last3 = [](const SequentialRunResult& res) {
    double sum = 0.0;
    for (std::size_t i = res.rows.size() - 3; i < res.rows.size(); ++i) {
      sum += res.rows[i].acc_learned;
    }
    return sum / 3.0;
  };

  constexpr std::uint64_t kSeeds[] = {4242, 77};
  double acc8 = 0.0, acc4 = 0.0;
  std::size_t entries8 = 0, entries4 = 0;
  for (const std::uint64_t seed : kSeeds) {
    const SequentialRunResult r8 = run_with(8, seed);
    const SequentialRunResult r4 = run_with(4, seed);
    ASSERT_EQ(r8.rows.size(), 10u);
    ASSERT_EQ(r4.rows.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_LE(r8.rows[i].latent_memory_bytes, capacity);
      ASSERT_LE(r4.rows[i].latent_memory_bytes, capacity);
    }
    EXPECT_GT(r8.rows.back().buffer_evictions, 0u)
        << "8-bit run must be budget-starved for the comparison to bite";
    entries8 = r8.rows.back().buffer_entries;
    entries4 = r4.rows.back().buffer_entries;
    acc8 += last3(r8) / std::size(kSeeds);
    acc4 += last3(r4) / std::size(kSeeds);
  }
  EXPECT_GE(static_cast<double>(entries4),
            1.9 * static_cast<double>(entries8))
      << entries4 << " vs " << entries8;
  // "Within 2 points of full precision": sub-byte storage must not cost
  // accuracy.  (It usually *gains* here — double the resident entries.)
  EXPECT_GE(acc4, acc8 - 0.02)
      << "4-bit stream lost more than 2 points vs the 8-bit run";
}

}  // namespace
}  // namespace r4ncl::core
