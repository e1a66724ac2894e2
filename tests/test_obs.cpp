// obs::MetricsRegistry: arm gating, histogram edge semantics, pinned
// snapshot JSON shape, registry determinism across identical runs, the
// enabled ≡ disabled bit-identity contract across policy × shards × engine
// read (stream / sample_into), the trainer's batch-assembly histograms, a
// concurrent-increment hammer (the TSan obs lane filters on the
// ObsRegistryHammer name), and the declarative CLI knob table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/replay_stream.hpp"
#include "core/sharded_engine.hpp"
#include "obs/metrics.hpp"
#include "snn/network.hpp"
#include "snn/trainer.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace r4ncl::obs {
namespace {

/// Restores the process-wide registry to its disarmed, zeroed default so
/// tests that arm metrics() cannot leak state into later tests (or into the
/// bit-identity contracts other test binaries pin).
struct GlobalRegistryGuard {
  GlobalRegistryGuard() {
    metrics().set_armed(false);
    metrics().set_trace(true);
    metrics().reset_values();
  }
  ~GlobalRegistryGuard() {
    metrics().set_armed(false);
    metrics().set_trace(true);
    metrics().reset_values();
  }
};

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double p, std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(p) ? 1 : 0;
  return r;
}

std::size_t probe_entry_bytes(std::size_t T, std::size_t C) {
  core::LatentReplayBuffer probe({.ratio = 1}, T);
  probe.add(random_raster(T, C, 0.3, 1), 0);
  return probe.memory_bytes();
}

constexpr core::ReplayPolicy kAllPolicies[] = {
    core::ReplayPolicy::kFifo, core::ReplayPolicy::kReservoir,
    core::ReplayPolicy::kClassBalanced, core::ReplayPolicy::kLowImportance,
    core::ReplayPolicy::kImportanceClassBalanced};

/// One deterministic add/report/shrink/draw workload.  `use_stream` flips
/// the read side between the draw decoded up front (sample_into) and the
/// streaming cursor — the read axis of the bit-identity matrix.
struct RunOutcome {
  data::Dataset final_state;
  data::Dataset drawn;
  std::size_t evictions = 0;
  std::size_t seen = 0;
};

RunOutcome drive_engine(core::ReplayPolicy policy, std::size_t shards, bool use_stream) {
  const std::size_t entry = probe_entry_bytes(8, 16);
  const core::ReplayBufferConfig budget{.capacity_bytes = 9 * entry, .policy = policy,
                                        .seed = 0xfee1600dULL};
  core::ShardedReplayEngine eng({.ratio = 1}, 8, budget, {.shards = shards});
  for (int i = 0; i < 60; ++i) {
    (void)eng.add(random_raster(8, 16, 0.1 + 0.012 * (i % 50), 7000 + i), i % 5);
    if (core::is_importance_policy(policy) && i % 7 == 0 && eng.size() > 2) {
      eng.report_outcome(i % eng.size(), 0.25f + 0.01f * (i % 13));
    }
  }
  eng.set_capacity(5 * entry);
  for (int i = 60; i < 80; ++i) {
    (void)eng.add(random_raster(8, 16, 0.1 + 0.012 * (i % 50), 7000 + i), i % 5);
  }

  RunOutcome out;
  Rng draw_rng(42);
  if (use_stream) {
    core::ReplayStream stream = eng.stream(4, draw_rng, 2);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const data::Sample& s = stream.fetch(i);
      out.drawn.push_back({s.raster, s.label});
    }
  } else {
    (void)eng.sample_into(4, draw_rng, out.drawn);
  }
  out.final_state = eng.materialize();
  out.evictions = eng.evictions();
  out.seen = eng.stream_seen();
  return out;
}

void expect_identical(const data::Dataset& a, const data::Dataset& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << what << " entry " << i;
    ASSERT_EQ(a[i].raster.bits.size(), b[i].raster.bits.size()) << what << " entry " << i;
    EXPECT_TRUE(std::equal(a[i].raster.bits.begin(), a[i].raster.bits.end(),
                           b[i].raster.bits.begin()))
        << what << " entry " << i << " payload differs";
  }
}

// ---------------------------------------------------------------------------
// Arm gating + handle mechanics
// ---------------------------------------------------------------------------

TEST(ObsRegistry, DisarmedWritesAreNoOps) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h", kLatencyEdgesSeconds);
  c.add(3);
  g.set(1.25);
  h.record(0.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);

  reg.set_armed(true);
  c.add(3);
  g.set(1.25);
  h.record(0.5);
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(g.value(), 1.25);
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsRegistry, HandlesAreStableAndSharedByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same");
  // Force rebalancing pressure: many registrations after the first handle.
  for (int i = 0; i < 200; ++i) {
    (void)reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&a, &reg.counter("same"));
}

TEST(ObsRegistry, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  reg.set_armed(true);
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h", kLatencyEdgesSeconds);
  c.add(7);
  h.record(1e-3);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(&c, &reg.counter("c"));  // same node survives the reset
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsRegistry, TraceSpanRecordsOnlyWhenTraceArmed) {
  MetricsRegistry reg;
  reg.set_armed(true);
  reg.set_trace(false);
  { TraceSpan span(reg, "span.seconds"); }
  // trace off: the span never registered (nor recorded into) the histogram.
  EXPECT_EQ(reg.histogram("span.seconds", kLatencyEdgesSeconds).count(), 0u);
  reg.set_trace(true);
  { TraceSpan span(reg, "span.seconds"); }
  EXPECT_EQ(reg.histogram("span.seconds", kLatencyEdgesSeconds).count(), 1u);
}

// ---------------------------------------------------------------------------
// Histogram bucket semantics
// ---------------------------------------------------------------------------

TEST(ObsRegistry, HistogramBucketEdgesArePinned) {
  MetricsRegistry reg;
  reg.set_armed(true);
  constexpr double edges[] = {1.0, 10.0, 100.0};
  Histogram& h = reg.histogram("h", edges);
  // Bucket i holds v <= edges[i]; the last bucket is overflow.
  EXPECT_EQ(h.bucket_of(-5.0), 0u);
  EXPECT_EQ(h.bucket_of(1.0), 0u);    // edge values land in their own bucket
  EXPECT_EQ(h.bucket_of(1.0001), 1u);
  EXPECT_EQ(h.bucket_of(10.0), 1u);
  EXPECT_EQ(h.bucket_of(100.0), 2u);
  EXPECT_EQ(h.bucket_of(100.0001), 3u);  // overflow bucket

  for (const double v : {0.5, 1.0, 5.0, 50.0, 500.0}) h.record(v);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 556.5);
}

TEST(ObsRegistry, HistogramEdgeValidation) {
  MetricsRegistry reg;
  constexpr double good[] = {1.0, 2.0};
  constexpr double unsorted[] = {2.0, 1.0};
  constexpr double different[] = {1.0, 3.0};
  EXPECT_THROW((void)reg.histogram("bad", std::span<const double>{}), Error);
  EXPECT_THROW((void)reg.histogram("bad", unsorted), Error);
  (void)reg.histogram("h", good);
  EXPECT_NO_THROW((void)reg.histogram("h", good));
  EXPECT_THROW((void)reg.histogram("h", different), Error);
}

// ---------------------------------------------------------------------------
// Snapshot shape (pinned) + determinism
// ---------------------------------------------------------------------------

TEST(ObsRegistry, SnapshotJsonShapeIsPinned) {
  MetricsRegistry reg;
  reg.set_armed(true);
  constexpr double edges[] = {1.0, 2.0};
  reg.counter("b.count").add(3);
  reg.counter("a.count").add(1);  // registered later, serialized first
  reg.gauge("mem.bytes").set(2.5);
  Histogram& h = reg.histogram("lat", edges);
  h.record(0.5);
  h.record(3.0);
  const std::string expected =
      "{\n"
      "  \"schema\": \"r4ncl-metrics-v1\",\n"
      "  \"counters\": {\n"
      "    \"a.count\": 1,\n"
      "    \"b.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"mem.bytes\": 2.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"lat\": {\"edges\": [1, 2], \"counts\": [1, 0, 1], \"sum\": 3.5, \"count\": 2}\n"
      "  }\n"
      "}";
  EXPECT_EQ(reg.snapshot_json(), expected);
}

TEST(ObsRegistry, EmptySnapshotShapeIsPinned) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.snapshot_json(),
            "{\n  \"schema\": \"r4ncl-metrics-v1\",\n  \"counters\": {},\n"
            "  \"gauges\": {},\n  \"histograms\": {}\n}");
}

TEST(ObsRegistry, WriteSnapshotRoundTrips) {
  MetricsRegistry reg;
  reg.set_armed(true);
  reg.counter("c").add(2);
  const std::string path = ::testing::TempDir() + "obs_snapshot.json";
  write_snapshot(reg, path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(4096, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  EXPECT_EQ(contents, reg.snapshot_json() + "\n");
}

TEST(ObsRegistry, CountersDeterministicAcrossIdenticalRuns) {
  GlobalRegistryGuard guard;
  metrics().set_armed(true);
  std::string snapshots[2];
  for (int run = 0; run < 2; ++run) {
    metrics().reset_values();
    (void)drive_engine(core::ReplayPolicy::kClassBalanced, 3, false);
    const std::string full = metrics().snapshot_json();
    // Counters (and bucket *counts*) are the deterministic slice; histogram
    // sums carry wall-clock, so compare up to the gauges section only after
    // dropping nothing — counters end where "gauges" begins.
    snapshots[run] = full.substr(0, full.find("\"gauges\""));
    ASSERT_NE(snapshots[run].find("replay_engine.adds"), std::string::npos);
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
}

// ---------------------------------------------------------------------------
// The observation-only contract: enabled ≡ disabled, bit for bit
// ---------------------------------------------------------------------------

TEST(ObsRegistry, EnabledRunsBitIdenticalToDisabledAcrossPolicyShardsStream) {
  GlobalRegistryGuard guard;
  for (const core::ReplayPolicy policy : kAllPolicies) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      for (const bool use_stream : {false, true}) {
        const std::string what = std::string(core::to_string(policy)) + "/shards" +
                                 std::to_string(shards) +
                                 (use_stream ? "/stream" : "/sample");
        metrics().set_armed(false);
        metrics().reset_values();
        const RunOutcome off = drive_engine(policy, shards, use_stream);
        metrics().set_armed(true);
        metrics().reset_values();
        const RunOutcome on = drive_engine(policy, shards, use_stream);
        EXPECT_EQ(off.evictions, on.evictions) << what;
        EXPECT_EQ(off.seen, on.seen) << what;
        expect_identical(off.final_state, on.final_state, what.c_str());
        expect_identical(off.drawn, on.drawn, (what + " draw").c_str());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trainer telemetry: perfbench's snn.assemble_s / snn.stall_s read these
// ---------------------------------------------------------------------------

TEST(ObsTrainerTelemetry, OneAssemblyRecordPerTrainedBatchAndNoneFromEvaluate) {
  GlobalRegistryGuard guard;
  metrics().set_armed(true);
  Histogram& assemble = metrics().histogram("pipeline.assemble_seconds", kLatencyEdgesSeconds);
  Histogram& stall = metrics().histogram("pipeline.stall_seconds", kLatencyEdgesSeconds);

  snn::NetworkConfig ncfg;
  ncfg.layer_sizes = {16, 12, 8};
  ncfg.num_classes = 3;
  ncfg.seed = 29;
  snn::SnnNetwork net(ncfg);
  data::Dataset train;
  for (std::size_t i = 0; i < 20; ++i) {
    train.push_back({random_raster(6, 16, 0.2, 9100 + i), static_cast<std::int32_t>(i % 3)});
  }
  // 20 samples at batch 8: 3 batches per epoch, the last one short.
  constexpr std::size_t kEpochs = 2, kBatchesPerEpoch = 3;
  snn::AdamOptimizer opt;
  snn::TrainOptions opts;
  opts.epochs = kEpochs;
  opts.batch_size = 8;

  const std::uint64_t assemble_count = assemble.count(), stall_count = stall.count();
  const double assemble_sum = assemble.sum(), stall_sum = stall.sum();
  const auto history = snn::train_supervised(net, train, opt, opts);
  EXPECT_EQ(assemble.count() - assemble_count, kEpochs * kBatchesPerEpoch);
  EXPECT_EQ(stall.count() - stall_count, kEpochs * kBatchesPerEpoch);
  // Assembly is synchronous, so every assembled second is a stalled one.
  EXPECT_EQ(assemble.sum() - assemble_sum, stall.sum() - stall_sum);
  double epoch_assembly = 0.0;
  for (const snn::EpochRecord& rec : history) epoch_assembly += rec.assembly_seconds;
  EXPECT_NEAR(epoch_assembly, assemble.sum() - assemble_sum, 1e-9);

  const std::uint64_t assembled = assemble.count(), stalled = stall.count();
  (void)snn::evaluate(net, train, 0, snn::ThresholdPolicy::fixed(1.0f), 8);
  EXPECT_EQ(assemble.count(), assembled);
  EXPECT_EQ(stall.count(), stalled);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (the TSan obs lane runs exactly this test by name)
// ---------------------------------------------------------------------------

TEST(ObsRegistryHammer, ConcurrentRegistrationAndIncrements) {
  MetricsRegistry reg;
  reg.set_armed(true);
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  Counter& shared = reg.counter("hammer.shared");
  Histogram& hist = reg.histogram("hammer.hist", kLatencyEdgesSeconds);
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // Mix shared-handle increments, per-thread registrations (exercising
      // the registry mutex against concurrent lookups) and lock-free
      // histogram records.
      Counter& mine = reg.counter("hammer.thread." + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        shared.add(1);
        mine.add(1);
        hist.record(1e-6 * static_cast<double>(i % 1000));
        if (i % 512 == 0) {
          (void)reg.counter("hammer.rotating." + std::to_string(i % 7));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(shared.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("hammer.thread." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters));
  }
}

// ---------------------------------------------------------------------------
// Declarative CLI knob table + telemetry knobs
// ---------------------------------------------------------------------------

TEST(ObsCliKnobs, TableIsSortedUniqueAndFullyDocumented) {
  const std::span<const core::CliKnob> knobs = core::standard_cli_knobs();
  ASSERT_FALSE(knobs.empty());
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    EXPECT_FALSE(knobs[i].name.empty());
    EXPECT_FALSE(knobs[i].help.empty()) << "knob '" << knobs[i].name << "' lacks help text";
    if (i > 0) {
      EXPECT_LT(knobs[i - 1].name, knobs[i].name)
          << "knob table not sorted/unique at '" << knobs[i].name << "'";
    }
  }
  // The key vocabulary derives from the table — one registration per knob.
  const std::vector<std::string_view> keys = core::standard_cli_keys();
  ASSERT_EQ(keys.size(), knobs.size());
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(keys[i], knobs[i].name);
}

TEST(ObsCliKnobs, TelemetryKnobsAreRegisteredOnce) {
  const auto knobs = core::standard_cli_knobs();
  const auto find = [&](std::string_view name) -> const core::CliKnob* {
    for (const core::CliKnob& k : knobs) {
      if (k.name == name) return &k;
    }
    return nullptr;
  };
  const core::CliKnob* metrics_out = find("metrics_out");
  const core::CliKnob* trace = find("trace");
  ASSERT_NE(metrics_out, nullptr);
  ASSERT_NE(trace, nullptr);
  // Telemetry knobs are read by init_metrics, not the method override pass.
  EXPECT_EQ(metrics_out->apply, nullptr);
  EXPECT_EQ(trace->apply, nullptr);
  // Replay-method knobs keep their override functions.
  const core::CliKnob* budget = find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_NE(budget->apply, nullptr);
}

TEST(ObsCliKnobs, UnknownKeyErrorStillListsSortedVocabulary) {
  Config cfg;
  cfg.set("metrics_typo", "x");
  try {
    core::validate_standard_keys(cfg);
    FAIL() << "expected unknown-key error";
  } catch (const Error& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("metrics_typo"), std::string::npos);
    // The sorted valid-key list now includes the telemetry knobs.
    const std::size_t metrics_at = msg.find("metrics_out");
    const std::size_t trace_at = msg.find("trace");
    ASSERT_NE(metrics_at, std::string::npos);
    ASSERT_NE(trace_at, std::string::npos);
    EXPECT_LT(metrics_at, trace_at);
  }
}

TEST(ObsCliKnobs, InitMetricsArmsOnlyOnExplicitRequest) {
  GlobalRegistryGuard guard;
  {
    const Config cfg;
    const core::MetricsOptions opts = core::init_metrics(cfg);
    EXPECT_TRUE(opts.out_path.empty());
    EXPECT_FALSE(metrics().armed());
  }
  {
    Config cfg;
    cfg.set("metrics_out", "snapshot.json");
    const core::MetricsOptions opts = core::init_metrics(cfg);
    EXPECT_EQ(opts.out_path, "snapshot.json");
    EXPECT_TRUE(metrics().armed());
    EXPECT_TRUE(metrics().trace_armed());
  }
  {
    Config cfg;
    cfg.set("metrics_out", "snapshot.json");
    cfg.set("trace", "0");
    (void)core::init_metrics(cfg);
    EXPECT_TRUE(metrics().armed());
    EXPECT_FALSE(metrics().trace_armed());
  }
}

}  // namespace
}  // namespace r4ncl::obs
