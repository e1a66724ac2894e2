// Importance-aware replay selection and per-task budget schedules: score
// bookkeeping across evictions (oldest-first and from the middle), the
// report_outcome feedback channel, schedule parsing and
// boundary re-eviction determinism, retention statistics, and the pinned
// CLI error messages of the eager validation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pretrain.hpp"
#include "core/sequential.hpp"
#include "snn/trainer.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {
namespace {

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double p, std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(p) ? 1 : 0;
  return r;
}

/// Raster with exactly `spikes` set cells (deterministic positions), so the
/// recorded density is exactly spikes / (T*C).
data::SpikeRaster counted_raster(std::size_t T, std::size_t C, std::size_t spikes) {
  data::SpikeRaster r(T, C);
  for (std::size_t i = 0; i < spikes && i < T * C; ++i) r.bits[i] = 1;
  return r;
}

std::size_t probe_entry_bytes(std::size_t T, std::size_t C) {
  LatentReplayBuffer probe({.ratio = 1}, T);
  probe.add(counted_raster(T, C, 1), 0);
  return probe.memory_bytes();
}

// ---------------------------------------------------------------------------
// Policy plumbing
// ---------------------------------------------------------------------------

TEST(ImportancePolicy, NamesRoundTripAndPinnedError) {
  for (const ReplayPolicy p : {ReplayPolicy::kLowImportance,
                               ReplayPolicy::kImportanceClassBalanced}) {
    EXPECT_EQ(parse_replay_policy(to_string(p)), p);
    EXPECT_TRUE(is_importance_policy(p));
  }
  EXPECT_FALSE(is_importance_policy(ReplayPolicy::kFifo));
  EXPECT_FALSE(is_importance_policy(ReplayPolicy::kReservoir));
  EXPECT_FALSE(is_importance_policy(ReplayPolicy::kClassBalanced));
  EXPECT_EQ(parse_replay_policy("importance_balanced"),
            ReplayPolicy::kImportanceClassBalanced);
  try {
    (void)parse_replay_policy("lru");
    FAIL() << "expected Error";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find(
                  "unknown replay policy 'lru' (expected fifo|reservoir|"
                  "class_balanced|low_importance|importance_class_balanced)"),
              std::string::npos)
        << err.what();
  }
}

TEST(ImportancePolicy, DensityRecordedAtInsert) {
  LatentReplayBuffer buf({.ratio = 1}, 4);
  const std::size_t cells = 4 * 8;
  for (std::size_t spikes : {0u, 3u, 16u, 32u}) {
    buf.add(counted_raster(4, 8, spikes), static_cast<std::int32_t>(spikes));
  }
  ASSERT_EQ(buf.size(), 4u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const float expected =
        static_cast<float>(buf.label_at(i)) / static_cast<float>(cells);
    EXPECT_FLOAT_EQ(buf.density_at(i), expected);
    // No outcome reported yet: importance is the density proxy.
    EXPECT_FLOAT_EQ(buf.importance_at(i), buf.density_at(i));
  }
}

// ---------------------------------------------------------------------------
// Low-importance eviction
// ---------------------------------------------------------------------------

TEST(ImportancePolicy, LowImportanceEvictsLeastDense) {
  const std::size_t entry = probe_entry_bytes(4, 8);
  LatentReplayBuffer buf({.ratio = 1}, 4,
                         {.capacity_bytes = 4 * entry,
                          .policy = ReplayPolicy::kLowImportance});
  // Densities 8, 2, 6, 4 spikes -> labels mark identity.
  for (const std::size_t spikes : {8u, 2u, 6u, 4u}) {
    EXPECT_TRUE(buf.add(counted_raster(4, 8, spikes), static_cast<std::int32_t>(spikes)));
  }
  // A denser newcomer displaces the sparsest stored entry (2 spikes).
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 10), 10));
  std::vector<std::int32_t> labels;
  for (std::size_t i = 0; i < buf.size(); ++i) labels.push_back(buf.label_at(i));
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels, (std::vector<std::int32_t>{4, 6, 8, 10}));
  EXPECT_EQ(buf.evictions(), 1u);
}

TEST(ImportancePolicy, LowImportanceRejectsSparserNewcomer) {
  const std::size_t entry = probe_entry_bytes(4, 8);
  LatentReplayBuffer buf({.ratio = 1}, 4,
                         {.capacity_bytes = 3 * entry,
                          .policy = ReplayPolicy::kLowImportance});
  for (const std::size_t spikes : {8u, 6u, 4u}) {
    EXPECT_TRUE(buf.add(counted_raster(4, 8, spikes), static_cast<std::int32_t>(spikes)));
  }
  // Strictly sparser than everything stored: the incoming entry loses.
  EXPECT_FALSE(buf.add(counted_raster(4, 8, 1), 1));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.evictions(), 1u);
  EXPECT_EQ(buf.stream_seen(), 4u);
  // An equal-score newcomer is accepted (ties evict the stored oldest-least).
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 4), 40));
  std::vector<std::int32_t> labels;
  for (std::size_t i = 0; i < buf.size(); ++i) labels.push_back(buf.label_at(i));
  EXPECT_EQ(std::count(labels.begin(), labels.end(), 40), 1);
}

TEST(ImportancePolicy, SaturatedOutcomesNeverBlockAdmission) {
  // Newcomer rejection is density-vs-density only: once every stored entry
  // carries a trainer-fed error score (here saturated at 1.0, far above any
  // density), a sparse new-task latent must still be admitted — otherwise a
  // misclassified old buffer would permanently starve new classes out.
  const std::size_t entry = probe_entry_bytes(4, 8);
  LatentReplayBuffer buf({.ratio = 1}, 4,
                         {.capacity_bytes = 3 * entry,
                          .policy = ReplayPolicy::kLowImportance});
  for (std::int32_t i = 0; i < 3; ++i) EXPECT_TRUE(buf.add(counted_raster(4, 8, 20), i));
  for (std::size_t i = 0; i < 3; ++i) buf.report_outcome(i, 1.0f);
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 1), 99))
      << "outcome-scored victims must not reject sparser newcomers";
  std::vector<std::int32_t> labels;
  for (std::size_t i = 0; i < buf.size(); ++i) labels.push_back(buf.label_at(i));
  EXPECT_EQ(std::count(labels.begin(), labels.end(), 99), 1);
  EXPECT_EQ(buf.evictions(), 1u);
}

TEST(ImportancePolicy, ScoresSurviveRingEvictionsAndCompaction) {
  // 300 adds through a 100-entry FIFO window evict the oldest entry 200
  // times; every surviving logical index must still resolve to its own
  // density (label encodes the spike count, so the mapping is checkable
  // without decoding).
  const std::size_t entry = probe_entry_bytes(4, 16);
  LatentReplayBuffer fifo({.ratio = 1}, 4,
                          {.capacity_bytes = 100 * entry, .policy = ReplayPolicy::kFifo});
  for (std::size_t i = 0; i < 300; ++i) {
    const std::size_t spikes = i % 60;
    fifo.add(counted_raster(4, 16, spikes), static_cast<std::int32_t>(spikes));
  }
  ASSERT_EQ(fifo.size(), 100u);
  EXPECT_EQ(fifo.evictions(), 200u);
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    const float expected = static_cast<float>(fifo.label_at(i)) / (4.0f * 16.0f);
    ASSERT_FLOAT_EQ(fifo.density_at(i), expected) << "index " << i;
  }

  // Middle evictions: the importance policy erases interior positions, and
  // the scores must move with their entries.
  LatentReplayBuffer imp({.ratio = 1}, 4,
                         {.capacity_bytes = 20 * entry,
                          .policy = ReplayPolicy::kLowImportance});
  Rng order_rng(77);
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t spikes = 1 + order_rng.uniform_index(60);
    imp.add(counted_raster(4, 16, spikes), static_cast<std::int32_t>(spikes));
  }
  ASSERT_EQ(imp.size(), 20u);
  for (std::size_t i = 0; i < imp.size(); ++i) {
    const float expected = static_cast<float>(imp.label_at(i)) / (4.0f * 16.0f);
    ASSERT_FLOAT_EQ(imp.density_at(i), expected) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Trainer feedback (report_outcome)
// ---------------------------------------------------------------------------

TEST(ImportancePolicy, ReportOutcomeEmaMath) {
  LatentReplayBuffer buf({.ratio = 1}, 4);
  buf.add(counted_raster(4, 8, 16), 0);
  EXPECT_FLOAT_EQ(buf.importance_at(0), 0.5f);  // density proxy
  buf.report_outcome(0, 1.0f);
  EXPECT_FLOAT_EQ(buf.importance_at(0), 1.0f);  // first report replaces
  buf.report_outcome(0, 0.0f);
  EXPECT_FLOAT_EQ(buf.importance_at(0), 1.0f - kOutcomeEma);
  buf.report_outcome(0, 0.0f);
  EXPECT_FLOAT_EQ(buf.importance_at(0), (1.0f - kOutcomeEma) * (1.0f - kOutcomeEma));
  // Density itself is untouched (it is the raw insert-time record).
  EXPECT_FLOAT_EQ(buf.density_at(0), 0.5f);
}

TEST(ImportancePolicy, OutcomeOverridesDensityForEviction) {
  const std::size_t entry = probe_entry_bytes(4, 8);
  LatentReplayBuffer buf({.ratio = 1}, 4,
                         {.capacity_bytes = 3 * entry,
                          .policy = ReplayPolicy::kLowImportance});
  // All equal density; labels 0,1,2.
  for (std::int32_t i = 0; i < 3; ++i) EXPECT_TRUE(buf.add(counted_raster(4, 8, 16), i));
  // The trainer consistently gets entry 1 right (error 0) and the others
  // wrong — entry 1 becomes the least informative.
  buf.report_outcome(0, 1.0f);
  buf.report_outcome(1, 0.0f);
  buf.report_outcome(2, 1.0f);
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 16), 3));
  std::vector<std::int32_t> labels;
  for (std::size_t i = 0; i < buf.size(); ++i) labels.push_back(buf.label_at(i));
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels, (std::vector<std::int32_t>{0, 2, 3}));
}

TEST(ImportancePolicy, ImportanceClassBalancedEvictsLeastImportantOfHeaviestClass) {
  const std::size_t entry = probe_entry_bytes(4, 8);
  LatentReplayBuffer buf({.ratio = 1}, 4,
                         {.capacity_bytes = 5 * entry,
                          .policy = ReplayPolicy::kImportanceClassBalanced});
  // Class 0 holds three entries with densities 24 > 8 > 16 spikes; class 1
  // holds two.  An arriving class-1 entry makes class 0 the heaviest, so its
  // least dense member (8 spikes, stream position 1) must give way even
  // though class 1 has sparser members overall.
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 24), 0));
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 8), 0));
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 16), 0));
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 2), 1));
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 4), 1));
  EXPECT_TRUE(buf.add(counted_raster(4, 8, 6), 1));
  auto occupancy = buf.class_occupancy();
  ASSERT_EQ(occupancy.size(), 2u);
  EXPECT_EQ(occupancy[0].second, 2u);  // class 0 shed its least important
  EXPECT_EQ(occupancy[1].second, 3u);
  std::vector<std::int32_t> class0_spikes;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf.label_at(i) == 0) {
      class0_spikes.push_back(
          static_cast<std::int32_t>(std::lround(buf.density_at(i) * 4 * 8)));
    }
  }
  std::sort(class0_spikes.begin(), class0_spikes.end());
  EXPECT_EQ(class0_spikes, (std::vector<std::int32_t>{16, 24}));
}

// ---------------------------------------------------------------------------
// Retention statistics
// ---------------------------------------------------------------------------

TEST(ImportancePolicy, ChiSquaredRetentionFavorsDenseEntries) {
  // 64-entry stream, half dense (~0.45) and half sparse (~0.05), capacity 16
  // entries.  Under content-blind uniform retention each bucket expects 8 of
  // the 16 survivors; low_importance must retain (nearly) only dense
  // entries, so the chi-squared statistic against the uniform null must
  // exceed any plausible noise threshold (1 dof; 10.83 ~ p = 0.001).
  const std::size_t entry = probe_entry_bytes(6, 16);
  LatentReplayBuffer buf({.ratio = 1}, 6,
                         {.capacity_bytes = 16 * entry,
                          .policy = ReplayPolicy::kLowImportance});
  std::size_t added = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const bool dense = (i % 2) == 0;
    (void)buf.add(random_raster(6, 16, dense ? 0.45 : 0.05, 1000 + i),
                  dense ? 1 : 0);
    ++added;
  }
  ASSERT_EQ(added, 64u);
  ASSERT_EQ(buf.size(), 16u);
  std::size_t dense_kept = 0, sparse_kept = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    (buf.label_at(i) == 1 ? dense_kept : sparse_kept) += 1;
  }
  const double expected = 8.0;
  const double chi2 = (dense_kept - expected) * (dense_kept - expected) / expected +
                      (sparse_kept - expected) * (sparse_kept - expected) / expected;
  EXPECT_GT(chi2, 10.83) << "retention indistinguishable from content-blind uniform "
                            "(dense " << dense_kept << ", sparse " << sparse_kept << ")";
  EXPECT_GE(dense_kept, 15u);
}

// ---------------------------------------------------------------------------
// Budget schedules
// ---------------------------------------------------------------------------

TEST(BudgetSchedule, ParseRoundTripAndPinnedErrors) {
  EXPECT_EQ(parse_budget_schedule("const").kind, BudgetScheduleKind::kConst);
  EXPECT_EQ(parse_budget_schedule("const").spec(), "const");

  const BudgetSchedule linear = parse_budget_schedule("linear:4096:1024");
  EXPECT_EQ(linear.kind, BudgetScheduleKind::kLinear);
  EXPECT_EQ(linear.linear_start, 4096u);
  EXPECT_EQ(linear.linear_end, 1024u);
  EXPECT_EQ(linear.spec(), "linear:4096:1024");

  const BudgetSchedule step = parse_budget_schedule("step:3:2048");
  EXPECT_EQ(step.kind, BudgetScheduleKind::kStep);
  EXPECT_EQ(step.step_task, 3u);
  EXPECT_EQ(step.step_bytes, 2048u);
  EXPECT_EQ(step.spec(), "step:3:2048");

  for (const std::string_view bad :
       {"linear", "linear:5", "linear:5:6:7", "linear:a:6", "linear::6", "step:-1:5",
        "ramp:1:2", "", "const:1:2",
        // A size_t-overflowing byte count must throw, not wrap to a small
        // (or 0 = unbounded) capacity.
        "linear:18446744073709551616:4096"}) {
    try {
      (void)parse_budget_schedule(bad);
      FAIL() << "expected Error for '" << bad << "'";
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find(
                    "(expected const|linear:<start>:<end>|step:<task>:<bytes>)"),
                std::string::npos)
          << err.what();
    }
  }
}

TEST(BudgetSchedule, CapacityForTaskMath) {
  BudgetSchedule none;
  EXPECT_EQ(none.capacity_for_task(5, 10, 777u), 777u);
  EXPECT_FALSE(none.active());

  const BudgetSchedule linear = parse_budget_schedule("linear:1000:200");
  EXPECT_TRUE(linear.active());
  EXPECT_EQ(linear.capacity_for_task(0, 5, 777u), 1000u);
  EXPECT_EQ(linear.capacity_for_task(4, 5, 777u), 200u);
  EXPECT_EQ(linear.capacity_for_task(2, 5, 777u), 600u);   // exact midpoint
  EXPECT_EQ(linear.capacity_for_task(1, 5, 777u), 800u);
  EXPECT_EQ(linear.capacity_for_task(9, 5, 777u), 200u);   // clamped past end
  EXPECT_EQ(linear.capacity_for_task(0, 1, 777u), 1000u);  // 1-task stream
  // Rising schedules interpolate too.
  const BudgetSchedule rising = parse_budget_schedule("linear:200:1000");
  EXPECT_EQ(rising.capacity_for_task(2, 5, 0u), 600u);

  // Byte counts near SIZE_MAX (which the parser admits) interpolate without
  // wrapping: halfway from 0 to 2^64-2 over 10 steps is 2^63-1, not garbage.
  const std::size_t big = ~static_cast<std::size_t>(0) - 1;
  const BudgetSchedule huge = parse_budget_schedule("linear:0:" + std::to_string(big));
  EXPECT_EQ(huge.capacity_for_task(5, 11, 0u), 9223372036854775807ull);

  const BudgetSchedule step = parse_budget_schedule("step:2:100");
  EXPECT_EQ(step.capacity_for_task(0, 5, 777u), 777u);
  EXPECT_EQ(step.capacity_for_task(1, 5, 777u), 777u);
  EXPECT_EQ(step.capacity_for_task(2, 5, 777u), 100u);
  EXPECT_EQ(step.capacity_for_task(4, 5, 777u), 100u);
}

TEST(BudgetSchedule, SetCapacityShrinkIsDeterministic) {
  // Identical seeds and streams must re-evict to byte-identical buffers at a
  // schedule boundary — for the rng-consuming policy (reservoir) and the
  // score-driven one (low_importance).
  const std::size_t entry = probe_entry_bytes(6, 16);
  for (const ReplayPolicy policy :
       {ReplayPolicy::kReservoir, ReplayPolicy::kLowImportance,
        ReplayPolicy::kImportanceClassBalanced}) {
    const ReplayBufferConfig budget{.capacity_bytes = 24 * entry, .policy = policy,
                                    .seed = 0xFEED + static_cast<std::uint64_t>(policy)};
    LatentReplayBuffer a({.ratio = 1}, 6, budget);
    LatentReplayBuffer b({.ratio = 1}, 6, budget);
    for (std::size_t i = 0; i < 40; ++i) {
      const auto r = random_raster(6, 16, 0.2 + 0.01 * static_cast<double>(i % 10),
                                   900 + i);
      (void)a.add(r, static_cast<std::int32_t>(i % 5));
      (void)b.add(r, static_cast<std::int32_t>(i % 5));
    }
    a.set_capacity(7 * entry);
    b.set_capacity(7 * entry);
    ASSERT_EQ(a.size(), b.size()) << to_string(policy);
    ASSERT_LE(a.memory_bytes(), 7 * entry) << to_string(policy);
    EXPECT_EQ(a.capacity_bytes(), 7 * entry);
    const data::Dataset da = a.materialize();
    const data::Dataset db = b.materialize();
    for (std::size_t i = 0; i < da.size(); ++i) {
      ASSERT_EQ(da[i].raster, db[i].raster) << to_string(policy) << " entry " << i;
      ASSERT_EQ(da[i].label, db[i].label);
    }
    // Re-running the shrink at the same cap is a no-op (no rng consumption).
    const std::size_t before = a.evictions();
    a.set_capacity(7 * entry);
    EXPECT_EQ(a.evictions(), before);
  }
}

TEST(BudgetSchedule, SetCapacityGrowAndUnboundedKeepEntries) {
  const std::size_t entry = probe_entry_bytes(4, 8);
  LatentReplayBuffer buf({.ratio = 1}, 4,
                         {.capacity_bytes = 4 * entry, .policy = ReplayPolicy::kFifo});
  for (std::int32_t i = 0; i < 8; ++i) buf.add(counted_raster(4, 8, 5), i);
  ASSERT_EQ(buf.size(), 4u);
  buf.set_capacity(16 * entry);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.capacity_bytes(), 16 * entry);
  for (std::int32_t i = 8; i < 20; ++i) buf.add(counted_raster(4, 8, 5), i);
  EXPECT_EQ(buf.size(), 16u);
  buf.set_capacity(0);  // unbounded: nothing evicts, growth resumes
  for (std::int32_t i = 20; i < 30; ++i) buf.add(counted_raster(4, 8, 5), i);
  EXPECT_EQ(buf.size(), 26u);
}

// ---------------------------------------------------------------------------
// Pinned CLI errors (eager validation in apply_replay_overrides)
// ---------------------------------------------------------------------------

TEST(ImportanceCli, PinnedErrorMessages) {
  const auto message_for = [](const char* key, const char* value) -> std::string {
    NclMethodConfig method = NclMethodConfig::replay4ncl();
    Config cfg;
    cfg.set(key, value);
    try {
      apply_replay_overrides(method, cfg);
    } catch (const Error& err) {
      return err.what();
    }
    return {};
  };
  EXPECT_NE(message_for("policy", "lfu").find(
                "unknown replay policy 'lfu' (expected fifo|reservoir|class_balanced|"
                "low_importance|importance_class_balanced)"),
            std::string::npos);
  EXPECT_NE(message_for("budget_schedule", "linear:1k:2k").find(
                "unknown budget_schedule 'linear:1k:2k' "
                "(expected const|linear:<start>:<end>|step:<task>:<bytes>)"),
            std::string::npos);
  EXPECT_NE(message_for("replay_seed", "-1").find(
                "replay_seed=-1 must be a non-negative eviction seed"),
            std::string::npos);
  // Strict decimal: a lax get_int would read "0x10" as 0 and run the wrong
  // seed without a word.
  EXPECT_NE(message_for("replay_seed", "0x10").find(
                "replay_seed=0x10 must be a non-negative eviction seed"),
            std::string::npos);
  EXPECT_TRUE(message_for("budget_schedule", "step:2:4096").empty());
  EXPECT_TRUE(message_for("policy", "importance_balanced").empty());
  // The full uint64 seed range is admissible.
  EXPECT_TRUE(message_for("replay_seed", "18446744073709551615").empty());
}

TEST(ImportanceCli, OverridesApplyToMethod) {
  NclMethodConfig method = NclMethodConfig::replay4ncl();
  Config cfg;
  cfg.set("policy", "low_importance");
  cfg.set("budget_schedule", "linear:9000:3000");
  cfg.set("replay_seed", "1234");
  cfg.set("importance_feedback", "0");
  apply_replay_overrides(method, cfg);
  EXPECT_EQ(method.replay_budget.policy, ReplayPolicy::kLowImportance);
  EXPECT_EQ(method.budget_schedule.kind, BudgetScheduleKind::kLinear);
  EXPECT_EQ(method.budget_schedule.linear_start, 9000u);
  EXPECT_EQ(method.budget_schedule.linear_end, 3000u);
  EXPECT_EQ(method.replay_budget.seed, 1234u);
  EXPECT_FALSE(method.importance_feedback);
}

// ---------------------------------------------------------------------------
// Trainer feedback channel
// ---------------------------------------------------------------------------

TEST(ImportanceFeedback, SampleOutcomeHookCoversEverySamplePerEpoch) {
  // Reuse the banded-dataset idea of test_trainer: 2 classes, 8 channels.
  data::Dataset train;
  Rng rng(5);
  for (std::int32_t k = 0; k < 2; ++k) {
    for (int i = 0; i < 6; ++i) {
      data::Sample s;
      s.label = k;
      s.raster = data::SpikeRaster(8, 8);
      for (std::size_t t = 0; t < 8; ++t) {
        for (std::size_t c = 0; c < 8; ++c) {
          const bool band = (k == 0) ? c < 4 : c >= 4;
          if (rng.bernoulli(band ? 0.6 : 0.05)) s.raster.set(t, c, true);
        }
      }
      train.push_back(std::move(s));
    }
  }
  snn::NetworkConfig nc;
  nc.layer_sizes = {8, 12};
  nc.num_classes = 2;
  nc.seed = 21;
  snn::SnnNetwork net(nc);
  snn::AdamOptimizer opt;
  snn::TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 5;  // ragged final batch: the hook must still fire
  std::vector<int> seen(train.size(), 0);
  std::size_t calls = 0;
  bool errors_binary = true;
  opts.sample_outcome = [&](std::size_t index, float error) {
    ASSERT_LT(index, train.size());
    seen[index] += 1;
    errors_binary = errors_binary && (error == 0.0f || error == 1.0f);
    ++calls;
  };
  (void)snn::train_supervised(net, train, opt, opts);
  EXPECT_EQ(calls, train.size() * opts.epochs);
  EXPECT_TRUE(errors_binary);
  for (const int count : seen) EXPECT_EQ(count, 3);
}

// ---------------------------------------------------------------------------
// Engine integration: schedule boundaries in run_sequential
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
  cfg.epochs = 12;
  cfg.batch_size = 8;
  return cfg;
}

TEST(BudgetSchedule, SequentialRunHonorsPerTaskBudgetsDeterministically) {
  const PretrainConfig pc = small_config();
  const data::SyntheticShdGenerator gen(pc.data_params);
  const data::SequentialTasks tasks = data::build_sequential_tasks(gen, pc.split, 2);
  snn::SnnNetwork pretrained(pc.network);
  {
    snn::AdamOptimizer opt;
    snn::TrainOptions opts;
    opts.epochs = pc.epochs;
    opts.batch_size = pc.batch_size;
    (void)snn::train_supervised(pretrained, tasks.pretrain_train, opt, opts);
  }

  const std::size_t entry = probe_entry_bytes(12, 48);
  SequentialRunConfig run;
  run.method = NclMethodConfig::replay4ncl(12);
  run.method.lr_cl = 5e-4f;
  run.method.batch_size = 8;
  run.method.replay_budget.policy = ReplayPolicy::kLowImportance;
  run.method.budget_schedule = parse_budget_schedule(
      "linear:" + std::to_string(14 * entry) + ":" + std::to_string(6 * entry));
  run.insertion_layer = 1;
  run.epochs_per_task = 3;
  run.replay_per_new_class = 4;

  auto run_once = [&]() {
    snn::SnnNetwork net = pretrained.clone();
    return run_sequential(net, tasks, run);
  };
  const SequentialRunResult a = run_once();
  ASSERT_EQ(a.rows.size(), 2u);
  // The schedule pins task budgets to its endpoints on a 2-task stream, and
  // each task's buffer state respects the budget in force.
  EXPECT_EQ(a.rows[0].budget_bytes, 14 * entry);
  EXPECT_EQ(a.rows[1].budget_bytes, 6 * entry);
  for (const auto& row : a.rows) {
    EXPECT_LE(row.latent_memory_bytes, row.budget_bytes) << "task " << row.task_index;
  }
  // 3 base classes x 3 latents seed 9 entries; the task-1 shrink to 6 forces
  // evictions even before arrivals are counted.
  EXPECT_GT(a.rows.back().buffer_evictions, 0u);

  // Same config, same seeds: bit-identical rows (schedule re-eviction and
  // outcome feedback included).
  EXPECT_EQ(run_once(), a);
}

}  // namespace
}  // namespace r4ncl::core
