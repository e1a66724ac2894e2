// ShardedReplayEngine: shards=1 bit-identity with LatentReplayBuffer across
// all five eviction policies, per-shard seed determinism, routing and
// capacity-split invariants, concurrent stress, and pinned CLI errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sharded_engine.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
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

constexpr ReplayPolicy kAllPolicies[] = {
    ReplayPolicy::kFifo, ReplayPolicy::kReservoir, ReplayPolicy::kClassBalanced,
    ReplayPolicy::kLowImportance, ReplayPolicy::kImportanceClassBalanced};

/// Drives one add/report/shrink stream against any store with the buffer's
/// API shape — the same calls, in the same order, for both sides of the
/// bit-identity comparison.
template <typename Store>
void drive_store(Store& store, ReplayPolicy policy, std::size_t entry_bytes) {
  for (int i = 0; i < 60; ++i) {
    (void)store.add(random_raster(8, 16, 0.1 + 0.012 * (i % 50), 7000 + i), i % 5);
    if (is_importance_policy(policy) && i % 7 == 0 && store.size() > 2) {
      store.report_outcome(i % store.size(), 0.25f + 0.01f * (i % 13));
    }
  }
  store.set_capacity(5 * entry_bytes);  // schedule-style shrink re-eviction
  for (int i = 60; i < 80; ++i) {
    (void)store.add(random_raster(8, 16, 0.1 + 0.012 * (i % 50), 7000 + i), i % 5);
  }
}

// ---------------------------------------------------------------------------
// shards=1 bit-identity with LatentReplayBuffer
// ---------------------------------------------------------------------------

TEST(ShardedEngine, SingleShardBitIdenticalAcrossAllPolicies) {
  const std::size_t entry = probe_entry_bytes(8, 16);
  for (const ReplayPolicy policy : kAllPolicies) {
    const ReplayBufferConfig budget{.capacity_bytes = 9 * entry, .policy = policy,
                                    .seed = 0xfee1600dULL};
    LatentReplayBuffer buf({.ratio = 1}, 8, budget);
    ShardedReplayEngine eng({.ratio = 1}, 8, budget, {.shards = 1});
    drive_store(buf, policy, entry);
    drive_store(eng, policy, entry);

    ASSERT_EQ(eng.size(), buf.size()) << to_string(policy);
    EXPECT_EQ(eng.memory_bytes(), buf.memory_bytes()) << to_string(policy);
    EXPECT_EQ(eng.stream_seen(), buf.stream_seen()) << to_string(policy);
    EXPECT_EQ(eng.evictions(), buf.evictions()) << to_string(policy);
    EXPECT_EQ(eng.class_occupancy(), buf.class_occupancy()) << to_string(policy);
    // Entry-for-entry identity: same logical order, same payloads.
    const data::Dataset a = buf.materialize();
    const data::Dataset b = eng.materialize();
    ASSERT_EQ(a.size(), b.size()) << to_string(policy);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label) << to_string(policy) << " entry " << i;
      EXPECT_EQ(a[i].raster, b[i].raster) << to_string(policy) << " entry " << i;
      EXPECT_EQ(buf.importance_at(i), eng.importance_at(i))
          << to_string(policy) << " entry " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-shard determinism and routing invariants
// ---------------------------------------------------------------------------

TEST(ShardedEngine, MultiShardRunsAreSeedDeterministic) {
  const std::size_t entry = probe_entry_bytes(8, 16);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const ShardKey key : {ShardKey::kClass, ShardKey::kHash}) {
      const ReplayBufferConfig budget{.capacity_bytes = 16 * entry,
                                      .policy = ReplayPolicy::kReservoir,
                                      .seed = 0x5eedULL};
      const ShardedEngineConfig sharding{.shards = shards, .shard_by = key};
      ShardedReplayEngine a({.ratio = 1}, 8, budget, sharding);
      ShardedReplayEngine b({.ratio = 1}, 8, budget, sharding);
      for (int i = 0; i < 120; ++i) {
        const data::SpikeRaster r = random_raster(8, 16, 0.3, 11000 + i);
        a.add(r, i % 10);
        b.add(r, i % 10);
      }
      ASSERT_EQ(a.size(), b.size()) << shards << "/" << to_string(key);
      const data::Dataset da = a.materialize();
      const data::Dataset db = b.materialize();
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da[i].raster, db[i].raster) << "entry " << i;
        EXPECT_EQ(da[i].label, db[i].label) << "entry " << i;
      }
    }
  }
}

TEST(ShardedEngine, ShardSeedsAreDecorrelated) {
  // Shard 0 keeps the base seed; later shards mix in i * kShardSeedMix, so
  // two shards fed the same stream must not evict in lockstep.
  const ShardedEngineConfig sharding{.shards = 4};
  ShardedReplayEngine eng({.ratio = 1}, 8, {.seed = 99}, sharding);
  std::set<std::uint64_t> mixed_seeds;
  for (std::size_t i = 0; i < 4; ++i) {
    mixed_seeds.insert(eng.shard(i).budget().seed);
  }
  EXPECT_EQ(mixed_seeds.size(), 4u);
  EXPECT_EQ(eng.shard(0).budget().seed, 99u);  // the bit-identity anchor
}

TEST(ShardedEngine, ClassRoutingPinsLabelsToShards) {
  ShardedReplayEngine eng({.ratio = 1}, 8, {}, {.shards = 3, .shard_by = ShardKey::kClass});
  for (int i = 0; i < 30; ++i) {
    eng.add(random_raster(8, 16, 0.3, 500 + i), i % 7);
  }
  for (std::size_t s = 0; s < 3; ++s) {
    for (const auto& [label, count] : eng.shard(s).class_occupancy()) {
      EXPECT_EQ(static_cast<std::uint32_t>(label) % 3, s)
          << "label " << label << " in shard " << s;
      EXPECT_GT(count, 0u);
    }
  }
  // The global view merges shard occupancies: every class 0..6, ~30/7 each.
  const auto occupancy = eng.class_occupancy();
  ASSERT_EQ(occupancy.size(), 7u);
  std::size_t total = 0;
  for (const auto& [label, count] : occupancy) total += count;
  EXPECT_EQ(total, eng.size());
}

TEST(ShardedEngine, HashRoutingFollowsRouteHash) {
  ShardedReplayEngine eng({.ratio = 1}, 8, {}, {.shards = 4, .shard_by = ShardKey::kHash});
  for (int i = 0; i < 20; ++i) {
    const data::SpikeRaster r = random_raster(8, 16, 0.3, 800 + i);
    const std::size_t expected = raster_route_hash(r, 3) % 4;
    EXPECT_EQ(eng.shard_of(r, 3), expected);
    const std::size_t before = eng.shard(expected).size();
    eng.add(r, 3);
    EXPECT_EQ(eng.shard(expected).size(), before + 1);
  }
}

TEST(ShardedEngine, CapacitySplitsAcrossShardsWithRemainder) {
  const std::size_t entry = probe_entry_bytes(8, 16);
  const std::size_t total = 7 * entry + 5;  // deliberately not divisible by 3
  ShardedReplayEngine eng({.ratio = 1}, 8, {.capacity_bytes = total}, {.shards = 3});
  EXPECT_EQ(eng.capacity_bytes(), total);
  std::size_t sum = 0;
  std::size_t lo = total, hi = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::size_t share = eng.shard(s).capacity_bytes();
    sum += share;
    lo = std::min(lo, share);
    hi = std::max(hi, share);
  }
  EXPECT_EQ(sum, total);
  EXPECT_LE(hi - lo, 1u);  // remainder bytes go to the first shards

  // Re-split on set_capacity, and unbounded stays unbounded per shard.
  eng.set_capacity(0);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(eng.shard(s).capacity_bytes(), 0u);
  eng.set_capacity(6 * entry);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(eng.shard(s).capacity_bytes(), 2 * entry);
  }
}

TEST(ShardedEngine, ShrinkReEvictsEveryShardUnderItsShare) {
  const std::size_t entry = probe_entry_bytes(8, 16);
  ShardedReplayEngine eng({.ratio = 1}, 8,
                          {.capacity_bytes = 12 * entry, .policy = ReplayPolicy::kFifo},
                          {.shards = 4});
  for (int i = 0; i < 40; ++i) {
    eng.add(random_raster(8, 16, 0.3, 300 + i), i % 4);
  }
  eng.set_capacity(4 * entry);
  EXPECT_LE(eng.memory_bytes(), 4 * entry);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(eng.shard(s).memory_bytes(), eng.shard(s).capacity_bytes());
  }
  EXPECT_EQ(eng.size(), 4u);  // one entry per shard share
}

TEST(ShardedEngine, GlobalIndexSpaceConcatenatesShards) {
  ShardedReplayEngine eng({.ratio = 1}, 8, {}, {.shards = 2, .shard_by = ShardKey::kClass});
  // Labels 0/2 → shard 0, label 1 → shard 1.
  eng.add(random_raster(8, 16, 0.3, 1), 0);
  eng.add(random_raster(8, 16, 0.3, 2), 1);
  eng.add(random_raster(8, 16, 0.3, 3), 2);
  eng.add(random_raster(8, 16, 0.3, 4), 1);
  ASSERT_EQ(eng.size(), 4u);
  // Shard 0's logical order first (0, 2), then shard 1's (1, 1).
  EXPECT_EQ(eng.label_at(0), 0);
  EXPECT_EQ(eng.label_at(1), 2);
  EXPECT_EQ(eng.label_at(2), 1);
  EXPECT_EQ(eng.label_at(3), 1);
  EXPECT_THROW((void)eng.label_at(4), Error);
  // report_outcome routes through the same mapping; out-of-range drops.
  eng.report_outcome(1, 0.75f);
  EXPECT_FLOAT_EQ(eng.importance_at(1), 0.75f);
  EXPECT_FLOAT_EQ(eng.shard(0).importance_at(1), 0.75f);
  EXPECT_NO_THROW(eng.report_outcome(4, 0.5f));
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST(ShardedEngine, ConcurrentAddSampleReportStress) {
  const std::size_t entry = probe_entry_bytes(8, 16);
  const std::size_t workers = 8;
  const std::size_t adds_per_worker = 150;
  for (const ShardKey key : {ShardKey::kClass, ShardKey::kHash}) {
    ShardedReplayEngine eng({.ratio = 1}, 8,
                            {.capacity_bytes = 32 * entry,
                             .policy = ReplayPolicy::kImportanceClassBalanced},
                            {.shards = 4, .shard_by = key});
    std::atomic<std::size_t> accepted{0};
    run_workers(workers, [&](std::size_t w) {
      Rng draw_rng(0x1000 + w);
      for (std::size_t i = 0; i < adds_per_worker; ++i) {
        const auto r = random_raster(8, 16, 0.2 + 0.05 * (w % 4),
                                     (w << 20) | i);
        if (eng.add(r, static_cast<std::int32_t>((w * 3 + i) % 11))) {
          accepted.fetch_add(1);
        }
        if (i % 16 == 0) {
          data::Dataset out;
          const auto drawn = eng.sample_into(4, draw_rng, out);
          for (std::size_t d = 0; d < drawn.size(); ++d) {
            eng.report_outcome(drawn[d], 0.5f);
          }
        }
      }
    });
    // Lifetime accounting must balance exactly: every offered entry was
    // either stored or displaced, and the byte budget held throughout.
    EXPECT_EQ(eng.stream_seen(), workers * adds_per_worker) << to_string(key);
    EXPECT_EQ(eng.size(), eng.stream_seen() - eng.evictions()) << to_string(key);
    EXPECT_LE(eng.memory_bytes(), 32 * entry) << to_string(key);
    EXPECT_EQ(eng.size(), 32u) << to_string(key);  // steady state: full
    std::size_t shard_sum = 0;
    for (std::size_t s = 0; s < 4; ++s) shard_sum += eng.shard(s).size();
    EXPECT_EQ(shard_sum, eng.size()) << to_string(key);
  }
}

// ---------------------------------------------------------------------------
// Config plumbing and pinned CLI errors
// ---------------------------------------------------------------------------

TEST(ShardedEngine, ShardKeyNamesRoundTrip) {
  EXPECT_EQ(parse_shard_key(to_string(ShardKey::kClass)), ShardKey::kClass);
  EXPECT_EQ(parse_shard_key(to_string(ShardKey::kHash)), ShardKey::kHash);
  try {
    (void)parse_shard_key("label");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown shard_by 'label' (expected class|hash)");
  }
}

TEST(ShardedEngine, RejectsZeroShardsAtConstruction) {
  try {
    ShardedReplayEngine eng({.ratio = 1}, 8, {}, {.shards = 0});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shards must be >= 1"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedEngine, CliOverridesApplyShardingKnobs) {
  NclMethodConfig method = NclMethodConfig::replay4ncl();
  Config cfg;
  cfg.set("shards", "4");
  cfg.set("shard_by", "hash");
  apply_replay_overrides(method, cfg);
  EXPECT_EQ(method.replay_sharding.shards, 4u);
  EXPECT_EQ(method.replay_sharding.shard_by, ShardKey::kHash);
}

TEST(ShardedEngine, CliRejectsNonPositiveShards) {
  for (const char* bad : {"0", "-3"}) {
    NclMethodConfig method = NclMethodConfig::replay4ncl();
    Config cfg;
    cfg.set("shards", bad);
    try {
      apply_replay_overrides(method, cfg);
      FAIL() << "expected Error for shards=" << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("shards=") + bad),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("must be a positive shard count"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardedEngine, CliRejectsUnknownShardKey) {
  NclMethodConfig method = NclMethodConfig::replay4ncl();
  Config cfg;
  cfg.set("shard_by", "bogus");
  try {
    apply_replay_overrides(method, cfg);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown shard_by 'bogus' (expected class|hash)");
  }
}

TEST(ShardedEngine, ShardsAndShardByAreStandardCliKeys) {
  const auto keys = standard_cli_keys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "shards"), keys.end());
  EXPECT_NE(std::find(keys.begin(), keys.end(), "shard_by"), keys.end());
}

}  // namespace
}  // namespace r4ncl::core
