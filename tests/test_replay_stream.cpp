// Streaming minibatch replay: ReplayStream-vs-sample_into() equivalence on
// the run engines' single-shard store (entry sets, rng stream,
// decompress_bits), scratch-pool memory bounds, the index-ring eviction
// regression (ring buffer == the historical vector-erase semantics across
// every policy), and the CLI hardening fixes (negative values, unknown keys)
// with their messages pinned.  That the run engines' streamed epochs equal a
// materialized assembly is pinned by tests/test_prefix_memo.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/replay_stream.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {
namespace {

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double p, std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(p) ? 1 : 0;
  return r;
}

/// Single-shard store (the run engines' default) with `n` random entries,
/// label i % 5.
ShardedReplayEngine filled_store(const compress::CodecConfig& codec, std::size_t n,
                                 std::size_t T = 8, std::size_t C = 24) {
  ShardedReplayEngine store(codec, T);
  for (std::size_t i = 0; i < n; ++i) {
    store.add(random_raster(T, C, 0.25, 100 + i), static_cast<std::int32_t>(i % 5));
  }
  return store;
}

/// sample_into() into a fresh dataset: the draw decoded up front.
data::Dataset decode_draw(const ShardedReplayEngine& store, std::size_t k, Rng& rng,
                          snn::SpikeOpStats* stats = nullptr) {
  data::Dataset out;
  (void)store.sample_into(k, rng, out, stats);
  return out;
}

void expect_same_samples(const data::Dataset& a, const std::vector<data::Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].raster, b[i].raster) << "entry " << i;
    EXPECT_EQ(a[i].label, b[i].label) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Stream vs sample_into(): identical draws, rng stream, and cost accounting
// ---------------------------------------------------------------------------

TEST(ReplayStream, CursorYieldsSampleEntrySetInOrder) {
  for (const std::uint8_t bits : {std::uint8_t{0}, std::uint8_t{2}}) {
    compress::CodecConfig codec{.ratio = 2, .latent_bits = bits};
    const ShardedReplayEngine store = filled_store(codec, 20);
    Rng rng_sample(42);
    Rng rng_stream(42);
    snn::SpikeOpStats stats_sample;
    snn::SpikeOpStats stats_stream;
    const data::Dataset drawn = decode_draw(store, 7, rng_sample, &stats_sample);
    ReplayStream stream = store.stream(7, rng_stream, 3, &stats_stream);
    std::vector<data::Sample> streamed;
    while (!stream.done()) {
      for (const data::Sample& s : stream.next()) streamed.push_back(s);
    }
    expect_same_samples(drawn, streamed);
    EXPECT_EQ(stats_sample.decompress_bits, stats_stream.decompress_bits)
        << "bits " << int(bits);
    // Both paths must leave the shared replay Rng in the same state, or the
    // streamed epochs would desynchronize from a decoded-up-front reference.
    EXPECT_EQ(rng_sample(), rng_stream());
  }
}

TEST(ReplayStream, FetchRandomAccessMatchesSample) {
  const ShardedReplayEngine store = filled_store({.ratio = 1, .latent_bits = 4}, 16);
  Rng rng_sample(9);
  Rng rng_stream(9);
  const data::Dataset drawn = decode_draw(store, 5, rng_sample);
  ReplayStream stream = store.stream(5, rng_stream, 2);
  // Out-of-order fetches (the shuffled-trainer access pattern).
  for (const std::size_t i : {std::size_t{4}, std::size_t{0}, std::size_t{2},
                              std::size_t{1}, std::size_t{3}}) {
    const data::Sample& s = stream.fetch(i);
    EXPECT_EQ(s.raster, drawn[i].raster) << "ordinal " << i;
    EXPECT_EQ(s.label, drawn[i].label);
    EXPECT_EQ(stream.label(i), drawn[i].label);
  }
}

TEST(ReplayStream, WholeBufferDrawKeepsOrderAndConsumesNoRng) {
  // A quantized codec, so the decompress_bits charge is non-zero.
  const ShardedReplayEngine store = filled_store({.ratio = 2, .latent_bits = 2}, 6);
  Rng rng(31);
  Rng untouched(31);
  snn::SpikeOpStats stream_stats;
  snn::SpikeOpStats full_stats;
  ReplayStream stream = store.stream(store.size(), rng, 4, &stream_stats);
  const data::Dataset all = store.materialize(&full_stats);
  std::vector<data::Sample> streamed;
  while (!stream.done()) {
    for (const data::Sample& s : stream.next()) streamed.push_back(s);
  }
  expect_same_samples(all, streamed);
  EXPECT_EQ(rng(), untouched()) << "materialize-equivalent draw must not consume rng";
  ASSERT_GT(full_stats.decompress_bits, 0u);
  EXPECT_EQ(stream_stats.decompress_bits, full_stats.decompress_bits);
}

TEST(ReplayStream, PeakAssemblyBytesBoundedByMinibatch) {
  const std::size_t T = 8;
  const std::size_t C = 24;
  const ShardedReplayEngine store = filled_store({.ratio = 2}, 30, T, C);
  const std::size_t raster_bytes = T * C;
  Rng rng(5);
  ReplayStream stream = store.stream(24, rng, 4);
  while (!stream.done()) (void)stream.next();
  EXPECT_EQ(stream.decoded(), 24u);
  EXPECT_GE(stream.peak_assembly_bytes(), 4 * raster_bytes);
  EXPECT_LT(stream.peak_assembly_bytes(), 24 * raster_bytes)
      << "streamed peak must undercut full materialization";
}

TEST(ReplayStream, EmptyBufferStreamsNothing) {
  // Also the store of a method without replay, whose capped epochs draw 4.
  const ShardedReplayEngine store({.ratio = 1}, 8);
  for (const std::size_t k : {std::size_t{0}, std::size_t{4}}) {
    Rng rng(1);
    Rng untouched(1);
    ReplayStream stream = store.stream(k, rng, 4);
    EXPECT_TRUE(stream.empty());
    EXPECT_TRUE(stream.done());
    EXPECT_TRUE(stream.next().empty());
    EXPECT_EQ(rng(), untouched()) << "k=" << k;
  }
}

TEST(ReplayStream, DrawIndicesMatchesSampleContract) {
  const ShardedReplayEngine store = filled_store({.ratio = 1}, 10);
  // k >= size: identity order, no rng consumption.
  Rng rng_a(3);
  Rng rng_b(3);
  const std::vector<std::size_t> all = store.stream(10, rng_a).drawn();
  EXPECT_EQ(all.size(), 10u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
  EXPECT_EQ(rng_a(), rng_b());
  // k < size: distinct, in range, and the same indices sample_into() decodes
  // from the same Rng.
  Rng rng_c(3);
  Rng rng_d(3);
  const std::vector<std::size_t> some = store.stream(4, rng_c).drawn();
  data::Dataset decoded;
  EXPECT_EQ(store.sample_into(4, rng_d, decoded), some);
  EXPECT_EQ(decoded.size(), 4u);
  EXPECT_EQ(rng_c(), rng_d());
  EXPECT_EQ(some.size(), 4u);
  auto sorted = some;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_LT(sorted.back(), 10u);
}

// ---------------------------------------------------------------------------
// Index-ring eviction regression: ring == historical vector-erase semantics
// ---------------------------------------------------------------------------

/// The pre-ring reference implementation: a plain vector with erase(), the
/// exact algorithm the buffer used before the index-ring refactor.  Runs the
/// same policy logic with the same Rng consumption so any divergence in the
/// ring's logical order shows up as a content mismatch.
struct NaiveBufferModel {
  struct Entry {
    data::SpikeRaster raster;
    std::int32_t label;
  };
  ReplayBufferConfig budget;
  std::size_t entry_bytes;  // all entries share one geometry
  Rng rng;
  std::size_t stream_seen = 0;
  std::size_t evictions = 0;
  std::vector<Entry> entries;

  NaiveBufferModel(const ReplayBufferConfig& b, std::size_t bytes)
      : budget(b), entry_bytes(bytes), rng(b.seed) {}

  bool add(const data::SpikeRaster& raster, std::int32_t label) {
    ++stream_seen;
    const std::size_t capacity = budget.capacity_bytes;
    if (capacity > 0 && (entries.size() + 1) * entry_bytes > capacity) {
      switch (budget.policy) {
        case ReplayPolicy::kFifo:
          while ((entries.size() + 1) * entry_bytes > capacity) evict(0);
          break;
        case ReplayPolicy::kReservoir: {
          const std::uint64_t j = rng.uniform_index(stream_seen);
          if (j >= entries.size()) {
            ++evictions;
            return false;
          }
          evict(static_cast<std::size_t>(j));
          break;
        }
        case ReplayPolicy::kClassBalanced:
          while ((entries.size() + 1) * entry_bytes > capacity) {
            evict(balanced_victim(label));
          }
          break;
        case ReplayPolicy::kLowImportance:
        case ReplayPolicy::kImportanceClassBalanced:
          ADD_FAILURE() << "NaiveBufferModel does not model importance policies";
          break;
      }
    }
    entries.push_back({raster, label});
    return true;
  }

  void evict(std::size_t index) {
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(index));
    ++evictions;
  }

  std::size_t balanced_victim(std::int32_t incoming) const {
    std::vector<std::pair<std::int32_t, std::size_t>> counts;
    for (const auto& e : entries) {
      auto it = std::find_if(counts.begin(), counts.end(),
                             [&](const auto& p) { return p.first == e.label; });
      if (it == counts.end()) {
        counts.push_back({e.label, 1});
      } else {
        ++it->second;
      }
    }
    std::sort(counts.begin(), counts.end());
    std::int32_t heaviest = 0;
    std::size_t heaviest_count = 0;
    for (const auto& [label, count] : counts) {
      const std::size_t effective = count + (label == incoming ? 1u : 0u);
      if (effective > heaviest_count) {
        heaviest = label;
        heaviest_count = effective;
      }
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].label == heaviest) return i;
    }
    return 0;
  }
};

class RingEvictionRegression : public ::testing::TestWithParam<ReplayPolicy> {};

TEST_P(RingEvictionRegression, LongStreamMatchesVectorEraseModel) {
  const std::size_t T = 6;
  const std::size_t C = 16;
  // Raw storage so the model can compare decompressed content exactly.
  const compress::CodecConfig codec{.ratio = 1};
  LatentReplayBuffer probe(codec, T);
  probe.add(random_raster(T, C, 0.3, 1), 0);
  const std::size_t entry = probe.memory_bytes();

  const ReplayBufferConfig budget{
      .capacity_bytes = 7 * entry, .policy = GetParam(), .seed = 0xFEED};
  LatentReplayBuffer ring(codec, T, budget);
  NaiveBufferModel model(budget, entry);
  // 400 adds — long enough that FIFO cycles the ring head through multiple
  // compactions and reservoir/balanced hit many middle evictions.
  for (int i = 0; i < 400; ++i) {
    const auto r = random_raster(T, C, 0.3, 5000 + i);
    const std::int32_t label = i % 7;
    EXPECT_EQ(ring.add(r, label), model.add(r, label)) << "add " << i;
  }
  EXPECT_EQ(ring.evictions(), model.evictions);
  EXPECT_EQ(ring.stream_seen(), model.stream_seen);
  const data::Dataset got = ring.materialize();
  ASSERT_EQ(got.size(), model.entries.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].raster, model.entries[i].raster) << "logical index " << i;
    EXPECT_EQ(got[i].label, model.entries[i].label) << "logical index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, RingEvictionRegression,
                         ::testing::Values(ReplayPolicy::kFifo, ReplayPolicy::kReservoir,
                                           ReplayPolicy::kClassBalanced),
                         [](const auto& p) { return std::string(to_string(p.param)); });

// ---------------------------------------------------------------------------
// CLI hardening: negative values and unknown keys fail loudly
// ---------------------------------------------------------------------------

TEST(ReplayCliOverrides, NegativeBudgetThrowsInsteadOfWrapping) {
  Config cfg;
  cfg.set("budget", "-1");
  NclMethodConfig method = NclMethodConfig::replay4ncl();
  try {
    apply_replay_overrides(method, cfg);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("budget=-1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("non-negative"), std::string::npos) << e.what();
  }
  // The method config must be untouched up to the failing knob's default.
  EXPECT_EQ(NclMethodConfig::replay4ncl().replay_budget.capacity_bytes,
            method.replay_budget.capacity_bytes);
}

TEST(ReplayCliOverrides, NegativeReplaySamplesThrowsInsteadOfWrapping) {
  Config cfg;
  cfg.set("replay_samples", "-3");
  NclMethodConfig method = NclMethodConfig::replay4ncl();
  try {
    apply_replay_overrides(method, cfg);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("replay_samples=-3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-negative"), std::string::npos) << e.what();
  }
}

TEST(ReplayCliOverrides, UnknownKeyIsRejectedWithValidList) {
  Config cfg;
  cfg.set("latentbits", "4");  // typo for latent_bits
  try {
    validate_standard_keys(cfg);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown config key 'latentbits'"), std::string::npos) << what;
    EXPECT_NE(what.find("latent_bits"), std::string::npos) << what;
    EXPECT_NE(what.find("replay_samples"), std::string::npos) << what;
  }
  // The retired prefetch= knob is rejected like any other unknown key.
  Config retired;
  retired.set("prefetch", "1");
  try {
    validate_standard_keys(retired);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown config key 'prefetch'"), std::string::npos) << what;
    EXPECT_NE(what.find("threads"), std::string::npos) << what;
  }
}

TEST(ReplayCliOverrides, ExtraKeysExtendTheVocabulary) {
  Config cfg;
  cfg.set("tasks", "4");
  cfg.set("scale", "0.5");
  EXPECT_THROW(validate_standard_keys(cfg), Error);
  EXPECT_NO_THROW(validate_standard_keys(cfg, {"tasks"}));
}

}  // namespace
}  // namespace r4ncl::core
