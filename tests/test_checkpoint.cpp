// Full-state checkpoint & warm resume: the bit-identity contract across
// every eviction policy and shard count, the format version, plus the
// loader-hardening contract — corrupt or truncated checkpoints raise the
// pinned r4ncl::Error with no crash, no silent partial load, and no
// allocation blow-up.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/pretrain.hpp"
#include "core/replay_stream.hpp"
#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "util/serialize.hpp"

namespace r4ncl::core {
namespace {

/// `name` in the gtest temp dir, prefixed with this process's id: ctest runs
/// every case as its own process, so cases running at once never read a
/// file that another one is rewriting.
std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::uint8_t* data, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(n));
}

bool tensor_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::equal(a.values().begin(), a.values().end(), b.values().begin());
}

bool weights_identical(const snn::SnnNetwork& a, const snn::SnnNetwork& b) {
  if (!tensor_equal(a.readout().w(), b.readout().w())) return false;
  for (std::size_t i = 0; i < a.num_hidden(); ++i) {
    if (!tensor_equal(a.hidden(i).w_ff(), b.hidden(i).w_ff())) return false;
    if (a.hidden(i).lif().recurrent &&
        !tensor_equal(a.hidden(i).w_rec(), b.hidden(i).w_rec())) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Sequential-run fixture: tiny 6-class scenario, pre-trained once and cloned
// per run so the whole resume matrix stays cheap.

PretrainConfig seq_config() {
  PretrainConfig cfg;
  cfg.network.layer_sizes = {48, 24, 12, 8};
  cfg.network.num_classes = 6;
  cfg.network.seed = 31;
  cfg.data_params.channels = 48;
  cfg.data_params.classes = 6;
  cfg.data_params.timesteps = 20;
  cfg.data_params.ridge_width = 4.0;
  cfg.data_params.position_pool = 6;
  cfg.data_params.seed = 37;
  cfg.split.train_per_class = 8;
  cfg.split.test_per_class = 4;
  cfg.split.replay_per_class = 2;
  cfg.split.seed = 41;
  cfg.epochs = 4;
  cfg.batch_size = 8;
  return cfg;
}

const data::SequentialTasks& seq_tasks() {
  static const data::SequentialTasks tasks = [] {
    const data::SyntheticShdGenerator gen(seq_config().data_params);
    return data::build_sequential_tasks(gen, seq_config().split, 2);
  }();
  return tasks;
}

const snn::SnnNetwork& seq_base_net() {
  static const snn::SnnNetwork net = [] {
    snn::SnnNetwork n(seq_config().network);
    snn::AdamOptimizer opt;
    snn::TrainOptions opts;
    opts.epochs = seq_config().epochs;
    opts.batch_size = seq_config().batch_size;
    (void)snn::train_supervised(n, seq_tasks().pretrain_train, opt, opts);
    return n;
  }();
  return net;
}

SequentialRunConfig seq_run(ReplayPolicy policy, std::size_t shards) {
  SequentialRunConfig cfg;
  cfg.method = NclMethodConfig::replay4ncl(10);
  cfg.method.lr_cl = 5e-4f;
  cfg.method.batch_size = 8;
  cfg.method.replay_budget.policy = policy;
  cfg.method.replay_sharding.shards = shards;
  cfg.method.replay_samples_per_epoch = 4;  // exercise the replay-draw rng
  cfg.method.importance_feedback = true;    // live feedback for the *_importance policies
  cfg.insertion_layer = 1;
  cfg.epochs_per_task = 2;
  cfg.replay_per_new_class = 2;
  return cfg;
}

/// A budget small enough that the 2-task stream actually evicts, measured
/// from one real entry so it tracks geometry/codec changes.
std::size_t seq_budget() {
  static const std::size_t budget = [] {
    const SequentialRunConfig run = seq_run(ReplayPolicy::kFifo, 1);
    LatentReplayBuffer probe(run.method.storage_codec, run.method.cl_timesteps);
    const data::Dataset rescaled = data::time_rescale(
        seq_tasks().replay_subset, run.method.cl_timesteps, run.method.rescale);
    const Tensor latent =
        seq_base_net().run_hidden(data::raster_to_batch(rescaled.front().raster), 0,
                                  run.insertion_layer, run.method.policy(), nullptr);
    probe.add(data::batch_to_raster(latent, 0), rescaled.front().label);
    return probe.memory_bytes() * 7;
  }();
  return budget;
}

// ---------------------------------------------------------------------------
// The bit-identity matrix: every eviction policy × shards {1, 4}.  Each
// cell runs the stream three ways — full,
// killed after task 1 (checkpoint forced), resumed from disk into a *blank*
// network — and requires the whole result and every weight to match the
// uninterrupted run exactly.

TEST(CheckpointResume, BitIdenticalAcrossPoliciesShardsAndStreaming) {
  const ReplayPolicy policies[] = {
      ReplayPolicy::kFifo, ReplayPolicy::kReservoir, ReplayPolicy::kClassBalanced,
      ReplayPolicy::kLowImportance, ReplayPolicy::kImportanceClassBalanced};
  std::size_t cell = 0;
  for (const ReplayPolicy policy : policies) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(to_string(policy)) + " shards=" + std::to_string(shards));
      SequentialRunConfig cfg = seq_run(policy, shards);
      cfg.method.replay_budget.capacity_bytes = seq_budget();

      snn::SnnNetwork ref_net = seq_base_net().clone();
      const SequentialRunResult full = run_sequential(ref_net, seq_tasks(), cfg);
      ASSERT_EQ(full.rows.size(), 2u);

      const std::string path = temp_path("resume_" + std::to_string(cell++) + ".ckpt");
      snn::SnnNetwork killed_net = seq_base_net().clone();
      CheckpointOptions save_opts;
      save_opts.save_path = path;
      save_opts.stop_after_units = 1;
      const SequentialRunResult partial =
          run_sequential(killed_net, seq_tasks(), cfg, save_opts);
      ASSERT_EQ(partial.rows.size(), 1u);
      EXPECT_EQ(partial.rows.front(), full.rows.front());

      snn::SnnNetwork resumed_net(seq_config().network);  // blank weights
      CheckpointOptions resume_opts;
      resume_opts.resume_path = path;
      const SequentialRunResult resumed =
          run_sequential(resumed_net, seq_tasks(), cfg, resume_opts);

      EXPECT_EQ(resumed, full);
      EXPECT_TRUE(weights_identical(resumed_net, ref_net));
      std::filesystem::remove(path);
    }
  }
}

TEST(CheckpointResume, DefaultOptionsMatchThreeArgForm) {
  SequentialRunConfig cfg = seq_run(ReplayPolicy::kReservoir, 1);
  snn::SnnNetwork a = seq_base_net().clone();
  snn::SnnNetwork b = seq_base_net().clone();
  const SequentialRunResult plain = run_sequential(a, seq_tasks(), cfg);
  const SequentialRunResult with_opts =
      run_sequential(b, seq_tasks(), cfg, CheckpointOptions{});
  EXPECT_EQ(plain, with_opts);
  EXPECT_TRUE(weights_identical(a, b));
}

TEST(CheckpointResume, CadenceSavesOnlyAtEveryKthUnitAndAtTheEnd) {
  SequentialRunConfig cfg = seq_run(ReplayPolicy::kFifo, 1);
  const std::string path = temp_path("cadence.ckpt");
  snn::SnnNetwork net = seq_base_net().clone();
  CheckpointOptions opts;
  opts.save_path = path;
  opts.every = 5;  // larger than the stream: only the run-end save fires
  (void)run_sequential(net, seq_tasks(), cfg, opts);
  EXPECT_TRUE(std::filesystem::exists(path));
  // The run-end snapshot resumes to an immediate no-op finish.
  snn::SnnNetwork resumed_net(seq_config().network);
  CheckpointOptions resume_opts;
  resume_opts.resume_path = path;
  const SequentialRunResult res =
      run_sequential(resumed_net, seq_tasks(), cfg, resume_opts);
  EXPECT_EQ(res.rows.size(), 2u);
  EXPECT_TRUE(weights_identical(resumed_net, net));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Continual-run resume: the run-long Adam moments ride along, so a resumed
// run must continue the *optimizer* exactly, not just the weights.

TEST(CheckpointResume, ContinualRunResumesWithOptimizerState) {
  PretrainConfig cfg = seq_config();
  cfg.split.new_class = 5;
  const PretrainedScenario scenario = make_pretrained_scenario(cfg);

  ClRunConfig run;
  run.method = NclMethodConfig::replay4ncl(10);
  run.method.lr_cl = 5e-4f;
  run.method.batch_size = 8;
  run.insertion_layer = 1;
  run.epochs = 4;
  run.seed = 55;

  snn::SnnNetwork ref_net = scenario.net.clone();
  const ClRunResult full = run_continual_learning(ref_net, scenario.tasks, run);
  ASSERT_EQ(full.rows.size(), 4u);

  const std::string path = temp_path("continual.ckpt");
  snn::SnnNetwork killed_net = scenario.net.clone();
  CheckpointOptions save_opts;
  save_opts.save_path = path;
  save_opts.stop_after_units = 2;
  const ClRunResult partial =
      run_continual_learning(killed_net, scenario.tasks, run, save_opts);
  ASSERT_EQ(partial.rows.size(), 2u);

  snn::SnnNetwork resumed_net(cfg.network);  // blank weights
  CheckpointOptions resume_opts;
  resume_opts.resume_path = path;
  const ClRunResult resumed =
      run_continual_learning(resumed_net, scenario.tasks, run, resume_opts);
  std::filesystem::remove(path);

  // Every field, the method name, insertion layer and prep stats included.
  EXPECT_EQ(resumed, full);
  EXPECT_TRUE(weights_identical(resumed_net, ref_net));
}

// ---------------------------------------------------------------------------
// Fingerprint verification: resuming under any changed configuration is a
// pinned error, not a silently diverging run.

/// Tiny run configs and task sets for the hand-built checkpoints below.
/// Only the sample counts of the task sets enter a fingerprint, so their
/// samples stay empty.
SequentialRunConfig tiny_seq_run() {
  SequentialRunConfig run;
  run.method = NclMethodConfig::replay4ncl(6);
  run.method.batch_size = 4;
  run.insertion_layer = 1;
  run.seed = 9;
  return run;
}

data::SequentialTasks tiny_seq_tasks() {
  data::SequentialTasks tasks;
  tasks.task_classes = {2, 3, 4};
  tasks.pretrain_test.resize(6);
  tasks.replay_subset.resize(4);
  tasks.task_train.assign(3, data::Dataset(5));
  tasks.task_test.assign(3, data::Dataset(2));
  return tasks;
}

ClRunConfig tiny_cl_run() {
  ClRunConfig run;
  run.method = tiny_seq_run().method;
  run.insertion_layer = 1;
  run.epochs = 3;
  run.seed = 9;
  return run;
}

data::ClassIncrementalTasks tiny_cl_tasks() {
  data::ClassIncrementalTasks tasks;
  tasks.pretrain_test.resize(6);
  tasks.replay_subset.resize(4);
  tasks.new_train.resize(5);
  tasks.new_test.resize(2);
  return tasks;
}

/// A small hand-built checkpoint (tiny net + 2-entry engine, one completed
/// unit) shared by the mismatch and corruption suites; ~a few KB so the
/// exhaustive sweeps stay fast even under sanitizers.  A continual one also
/// carries Adam moments, as run_continual_learning's do.
struct TinyCheckpoint {
  snn::NetworkConfig net_config;
  NclMethodConfig method = tiny_seq_run().method;
  RunFingerprint fingerprint;
  bool with_optimizer;
  std::string path;

  TinyCheckpoint(const std::string& name, RunFingerprint run_fingerprint, bool optimizer)
      : fingerprint(std::move(run_fingerprint)),
        with_optimizer(optimizer),
        path(temp_path(name)) {
    net_config.layer_sizes = {10, 6, 4};
    net_config.num_classes = 3;
    net_config.seed = 5;

    const snn::SnnNetwork net(net_config);
    ShardedReplayEngine store = engine();
    Rng fill(3);
    for (int i = 0; i < 2; ++i) {
      data::SpikeRaster r(method.cl_timesteps, 6);
      for (auto& b : r.bits) b = fill.bernoulli(0.3) ? 1 : 0;
      store.add(r, i);
    }
    snn::AdamOptimizer adam;
    Tensor w(2, 3);
    Tensor g(2, 3);
    g.values()[0] = 0.5f;
    adam.step("readout.w", w, g, 0.01f);

    Checkpoint ck;
    ck.meta = {fingerprint, 1};
    ck.unit_rng = Rng(11).state();
    ck.replay_rng = Rng(13).state();
    SequentialTaskRow row;
    row.task_index = 0;
    row.class_id = 2;
    row.acc_base = 0.5;
    ck.sequential.rows.push_back(row);
    ck.sequential.total_latency_ms = 1.5;
    ck.sequential.total_energy_uj = 2.5;
    ck.continual.rows.push_back(ClEpochRow{.epoch = 0, .loss = 0.25});
    ck.continual.final_acc_old = 0.5;
    save_checkpoint(path, ck, net, with_optimizer ? &adam : nullptr, store);
  }
  ~TinyCheckpoint() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
  TinyCheckpoint(const TinyCheckpoint&) = delete;
  TinyCheckpoint& operator=(const TinyCheckpoint&) = delete;

  /// A fresh engine of the saved geometry.
  [[nodiscard]] ShardedReplayEngine engine() const {
    return ShardedReplayEngine(method.storage_codec, method.cl_timesteps,
                               method.replay_budget.with_run_seed(9), method.replay_sharding);
  }

  /// Fresh load targets (partially mutated loads are fine to reuse — every
  /// iteration re-parses from the file).
  [[nodiscard]] Checkpoint load(const RunFingerprint& expected,
                                snn::AdamOptimizer* optimizer = nullptr) const {
    snn::SnnNetwork net(net_config);
    ShardedReplayEngine store = engine();
    return load_checkpoint(path, expected, net, optimizer, store);
  }
};

/// A sequential run's checkpoint, saved without optimizer state.
const TinyCheckpoint& tiny() {
  static const TinyCheckpoint t("tiny.ckpt", run_fingerprint(tiny_seq_run(), tiny_seq_tasks()),
                                false);
  return t;
}

/// A continual run's checkpoint, saved with Adam moments.
const TinyCheckpoint& tiny_continual() {
  static const TinyCheckpoint t("tiny_continual.ckpt",
                                run_fingerprint(tiny_cl_run(), tiny_cl_tasks()), true);
  return t;
}

void expect_load_error(const RunFingerprint& expected, const std::string& needle,
                       snn::AdamOptimizer* optimizer = nullptr) {
  try {
    (void)tiny().load(expected, optimizer);
    FAIL() << "expected Error containing \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

/// Loads `ck` against `expected`, which must differ from the saved
/// fingerprint at `key` alone.  The load must throw the pinned mismatch for
/// `key` and leave the network, optimizer and engine it was given as they
/// were.
void expect_pinned(const TinyCheckpoint& ck, const RunFingerprint& expected,
                   const std::string& key) {
  SCOPED_TRACE(key);
  ASSERT_EQ(expected.size(), ck.fingerprint.size());
  std::vector<std::string> differing;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != ck.fingerprint[i]) differing.push_back(expected[i].first);
  }
  EXPECT_EQ(differing, std::vector<std::string>{key});

  snn::NetworkConfig other = ck.net_config;
  other.seed += 1;  // weights unlike the saved ones, so a load would show
  snn::SnnNetwork net(other);
  const snn::SnnNetwork before = net.clone();
  snn::AdamOptimizer optimizer;
  ShardedReplayEngine engine = ck.engine();
  try {
    (void)load_checkpoint(ck.path, expected, net, ck.with_optimizer ? &optimizer : nullptr,
                          engine);
    ADD_FAILURE() << "expected a mismatch on " << key;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint mismatch: " + key + " was '"),
              std::string::npos)
        << "actual message: " << e.what();
  }
  EXPECT_TRUE(weights_identical(net, before));
  EXPECT_EQ(optimizer.num_states(), 0u);
  EXPECT_EQ(engine.size(), 0u);
}

/// One change per NclMethodConfig key, each moving only that key.
std::vector<std::pair<std::string, std::function<void(NclMethodConfig&)>>> method_changes() {
  return {
      {"method_name", [](NclMethodConfig& m) { m.name = "Other"; }},
      {"cl_timesteps", [](NclMethodConfig& m) { m.cl_timesteps = 12; }},
      {"codec_ratio", [](NclMethodConfig& m) { m.storage_codec.ratio = 2; }},
      {"codec_strategy",
       [](NclMethodConfig& m) { m.storage_codec.strategy = compress::CodecStrategy::kGroupOr; }},
      {"latent_bits", [](NclMethodConfig& m) { m.storage_codec.latent_bits = 2; }},
      // One ulp: the text form of a float must round-trip exactly.
      {"lr_cl", [](NclMethodConfig& m) { m.lr_cl = std::nextafter(m.lr_cl, 1.0f); }},
      {"adaptive_threshold", [](NclMethodConfig& m) { m.adaptive_threshold = false; }},
      {"adjust_interval", [](NclMethodConfig& m) { m.adjust_interval = 7; }},
      {"rescale", [](NclMethodConfig& m) { m.rescale = data::TimeRescaleMethod::kSubsample; }},
      {"use_replay", [](NclMethodConfig& m) { m.use_replay = false; }},
      {"capacity_bytes", [](NclMethodConfig& m) { m.replay_budget.capacity_bytes = 4096; }},
      {"policy", [](NclMethodConfig& m) { m.replay_budget.policy = ReplayPolicy::kReservoir; }},
      {"eviction_seed", [](NclMethodConfig& m) { m.replay_budget.seed += 1; }},
      {"schedule",
       [](NclMethodConfig& m) { m.budget_schedule = parse_budget_schedule("step:1:64"); }},
      {"importance_feedback", [](NclMethodConfig& m) { m.importance_feedback = false; }},
      {"replay_samples", [](NclMethodConfig& m) { m.replay_samples_per_epoch = 4; }},
      {"shards", [](NclMethodConfig& m) { m.replay_sharding.shards = 4; }},
      {"shard_by", [](NclMethodConfig& m) { m.replay_sharding.shard_by = ShardKey::kHash; }},
      {"batch_size", [](NclMethodConfig& m) { m.batch_size = 8; }},
  };
}

/// Changes one key at a time, first through the engine's own `changes`,
/// then through method_changes(), and requires each change to be pinned
/// (expect_pinned) against `ck`, saved from `base_run()` and `base_tasks()`.
/// Together the changes must cover every key of the fingerprint but "kind",
/// which only the other engine's fingerprint changes.
template <typename Run, typename Tasks>
void expect_every_key_pinned(
    const TinyCheckpoint& ck, Run (*base_run)(), Tasks (*base_tasks)(),
    std::vector<std::pair<std::string, std::function<void(Run&, Tasks&)>>> changes) {
  for (auto& [key, change] : method_changes()) {
    changes.emplace_back(key, [change](Run& run, Tasks&) { change(run.method); });
  }
  std::set<std::string> changed;
  for (const auto& [key, change] : changes) {
    Run run = base_run();
    Tasks tasks = base_tasks();
    change(run, tasks);
    expect_pinned(ck, run_fingerprint(run, tasks), key);
    changed.insert(key);
  }
  std::set<std::string> keys;
  for (const auto& entry : ck.fingerprint) keys.insert(entry.first);
  keys.erase("kind");
  EXPECT_EQ(changed, keys);
}

TEST(CheckpointMismatch, RoundTripRestoresCarriedState) {
  const Checkpoint ck = tiny().load(tiny().fingerprint);
  EXPECT_EQ(ck.meta.fingerprint, tiny().fingerprint);
  EXPECT_EQ(ck.meta.next_unit, 1u);
  ASSERT_EQ(ck.sequential.rows.size(), 1u);
  EXPECT_EQ(ck.sequential.rows[0].class_id, 2);
  EXPECT_EQ(ck.sequential.rows[0].acc_base, 0.5);
  EXPECT_EQ(ck.sequential.total_latency_ms, 1.5);
  EXPECT_EQ(ck.sequential.total_energy_uj, 2.5);
  EXPECT_EQ(ck.unit_rng, Rng(11).state());
  EXPECT_EQ(ck.replay_rng, Rng(13).state());
}

TEST(CheckpointMismatch, KindPolicyAndSeedAllPinned) {
  expect_load_error(tiny_continual().fingerprint,
                    "checkpoint mismatch: kind was 'sequential', this run expects 'continual'");
  const auto expect_change = [](const std::string& needle, auto&& change) {
    SequentialRunConfig run = tiny_seq_run();
    data::SequentialTasks tasks = tiny_seq_tasks();
    change(run, tasks);
    expect_load_error(run_fingerprint(run, tasks), needle);
  };
  expect_change("checkpoint mismatch: policy was 'fifo', this run expects 'reservoir'",
                [](auto& run, auto&) {
                  run.method.replay_budget.policy = ReplayPolicy::kReservoir;
                });
  expect_change("checkpoint mismatch: seed was '9', this run expects '10'",
                [](auto& run, auto&) { run.seed = 10; });
  expect_change("checkpoint mismatch: shards",
                [](auto& run, auto&) { run.method.replay_sharding.shards = 4; });
  expect_change("checkpoint mismatch: cl_timesteps",
                [](auto& run, auto&) { run.method.cl_timesteps = 12; });
  expect_change("checkpoint mismatch: total_units was '3', this run expects '4'",
                [](auto&, auto& tasks) { tasks.task_classes.push_back(5); });
}

TEST(CheckpointMismatch, EverySequentialKeyIsPinned) {
  expect_every_key_pinned<SequentialRunConfig, data::SequentialTasks>(
      tiny(), tiny_seq_run, tiny_seq_tasks,
      {
          {"total_units", [](auto&, auto& tasks) { tasks.task_classes.push_back(5); }},
          {"insertion_layer", [](auto& run, auto&) { run.insertion_layer = 2; }},
          {"epochs_per_task", [](auto& run, auto&) { run.epochs_per_task = 1; }},
          {"replay_per_new_class", [](auto& run, auto&) { run.replay_per_new_class = 3; }},
          {"seed", [](auto& run, auto&) { run.seed = 10; }},
          {"replay_subset_samples",
           [](auto&, auto& tasks) { tasks.replay_subset.emplace_back(); }},
          {"pretrain_test_samples", [](auto&, auto& tasks) { tasks.pretrain_test.pop_back(); }},
          {"task_train_samples",
           [](auto&, auto& tasks) { tasks.task_train.back().emplace_back(); }},
          {"task_test_samples", [](auto&, auto& tasks) { tasks.task_test.front().pop_back(); }},
      });
}

TEST(CheckpointMismatch, EveryContinualKeyIsPinned) {
  expect_every_key_pinned<ClRunConfig, data::ClassIncrementalTasks>(
      tiny_continual(), tiny_cl_run, tiny_cl_tasks,
      {
          {"total_units", [](auto& run, auto&) { run.epochs = 1; }},
          {"insertion_layer", [](auto& run, auto&) { run.insertion_layer = 2; }},
          {"eval_every", [](auto& run, auto&) { run.eval_every = 2; }},
          {"seed", [](auto& run, auto&) { run.seed = 10; }},
          {"replay_subset_samples",
           [](auto&, auto& tasks) { tasks.replay_subset.emplace_back(); }},
          {"new_train_samples", [](auto&, auto& tasks) { tasks.new_train.pop_back(); }},
          {"pretrain_test_samples",
           [](auto&, auto& tasks) { tasks.pretrain_test.emplace_back(); }},
          {"new_test_samples", [](auto&, auto& tasks) { tasks.new_test.pop_back(); }},
      });
}

TEST(CheckpointMismatch, ThreadsVerboseAndRetiredFieldsStillResume) {
  // threads=N is bit-identical to 1, verbose only logs, and replay_stream
  // and prefetch are read by no library code: none of them pins a run.
  const auto unpinned = [](NclMethodConfig& m) {
    m.threads = 4;
    m.replay_stream = true;
    m.prefetch = true;
  };
  SequentialRunConfig seq = tiny_seq_run();
  unpinned(seq.method);
  seq.verbose = true;
  ASSERT_EQ(run_fingerprint(seq, tiny_seq_tasks()), tiny().fingerprint);
  EXPECT_EQ(tiny().load(run_fingerprint(seq, tiny_seq_tasks())).meta.next_unit, 1u);

  ClRunConfig cl = tiny_cl_run();
  unpinned(cl.method);
  cl.verbose = true;
  ASSERT_EQ(run_fingerprint(cl, tiny_cl_tasks()), tiny_continual().fingerprint);
  snn::AdamOptimizer optimizer;
  const Checkpoint ck = tiny_continual().load(run_fingerprint(cl, tiny_cl_tasks()), &optimizer);
  EXPECT_EQ(optimizer.num_states(), 1u);
  ASSERT_EQ(ck.continual.rows.size(), 1u);
  EXPECT_EQ(ck.continual.rows[0].loss, 0.25);
  EXPECT_EQ(ck.continual.final_acc_old, 0.5);
}

TEST(CheckpointMismatch, OlderVersionsAreRejected) {
  // Versions 1–3 stored a typed META field list (version 1 with a
  // replay_stream flag, versions 1 and 2 with wall-clock seconds in PROG);
  // this build reads 4.  The version word follows the 4-byte file tag.
  std::vector<std::uint8_t> bytes = read_file(tiny().path);
  ASSERT_GE(bytes.size(), 8u);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  ASSERT_EQ(version, 4u);
  const std::string old = temp_path("old_version.ckpt");
  for (const std::uint32_t older : {1u, 2u, 3u}) {
    std::memcpy(bytes.data() + 4, &older, sizeof(older));
    write_file(old, bytes.data(), bytes.size());
    snn::SnnNetwork net(tiny().net_config);
    ShardedReplayEngine engine = tiny().engine();
    try {
      (void)load_checkpoint(old, tiny().fingerprint, net, nullptr, engine);
      ADD_FAILURE() << "expected a version error for version " << older;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unsupported checkpoint version " + std::to_string(older) + " in " +
                          old),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("(this build reads 4)"), std::string::npos) << what;
    }
  }
  std::filesystem::remove(old);
}

TEST(CheckpointMismatch, OptimizerPresenceIsVerified) {
  // Saved without optimizer state; a resuming run that needs it must fail.
  snn::AdamOptimizer optimizer;
  expect_load_error(tiny().fingerprint, "optimizer state", &optimizer);
}

TEST(CheckpointMismatch, NetworkArchitectureIsVerified) {
  snn::NetworkConfig other = tiny().net_config;
  other.layer_sizes = {10, 6, 5};
  snn::SnnNetwork net(other);
  ShardedReplayEngine engine = tiny().engine();
  try {
    (void)load_checkpoint(tiny().path, tiny().fingerprint, net, nullptr, engine);
    FAIL() << "expected architecture mismatch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("architecture mismatch"), std::string::npos)
        << "actual message: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Loader hardening: every strict prefix of a real checkpoint must raise the
// pinned Error; no bit flip anywhere in the file may crash or blow up an
// allocation; a hostile length prefix dies on the bounds check, not in the
// allocator.

TEST(CheckpointCorruption, EveryTruncationRaisesPinnedError) {
  const std::vector<std::uint8_t> bytes = read_file(tiny().path);
  ASSERT_GT(bytes.size(), 0u);
  const std::string mangled = temp_path("truncated.ckpt");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(mangled, bytes.data(), len);
    snn::SnnNetwork net(tiny().net_config);
    ShardedReplayEngine engine = tiny().engine();
    EXPECT_THROW((void)load_checkpoint(mangled, tiny().fingerprint, net, nullptr, engine), Error)
        << "truncation at byte " << len << " of " << bytes.size();
  }
  std::filesystem::remove(mangled);
}

TEST(CheckpointCorruption, NoBitFlipCrashesTheLoader) {
  const std::vector<std::uint8_t> bytes = read_file(tiny().path);
  ASSERT_GT(bytes.size(), 0u);
  const std::string mangled = temp_path("bitflip.ckpt");
  std::vector<std::uint8_t> copy = bytes;
  std::size_t pinned_errors = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      copy[i] = bytes[i] ^ static_cast<std::uint8_t>(1u << bit);
      write_file(mangled, copy.data(), copy.size());
      snn::SnnNetwork net(tiny().net_config);
      ShardedReplayEngine engine = tiny().engine();
      // Contract: either the flip lands in plain data (load succeeds with
      // different values) or the loader raises the pinned Error.  Anything
      // else — a crash, a bad_alloc, an uncaught std exception — fails here.
      try {
        (void)load_checkpoint(mangled, tiny().fingerprint, net, nullptr, engine);
      } catch (const Error&) {
        ++pinned_errors;
      }
    }
    copy[i] = bytes[i];
  }
  // Structural bytes dominate a small checkpoint; most flips must be caught.
  EXPECT_GT(pinned_errors, bytes.size());
  std::filesystem::remove(mangled);
}

TEST(CheckpointCorruption, HostileRowCountDiesOnBoundsCheckNotAllocation) {
  std::vector<std::uint8_t> bytes = read_file(tiny().path);
  // The u64 row count sits right after the "PROG" section tag.
  const std::uint8_t prog[4] = {'P', 'R', 'O', 'G'};
  const auto it = std::search(bytes.begin(), bytes.end(), std::begin(prog), std::end(prog));
  ASSERT_NE(it, bytes.end());
  const std::size_t count_at = static_cast<std::size_t>(it - bytes.begin()) + 4;
  ASSERT_LE(count_at + 8, bytes.size());
  const std::uint64_t huge = 0x4000000000000000ULL;
  std::memcpy(bytes.data() + count_at, &huge, sizeof(huge));
  const std::string mangled = temp_path("hugecount.ckpt");
  write_file(mangled, bytes.data(), bytes.size());
  snn::SnnNetwork net(tiny().net_config);
  ShardedReplayEngine engine = tiny().engine();
  try {
    (void)load_checkpoint(mangled, tiny().fingerprint, net, nullptr, engine);
    FAIL() << "expected the row-count bounds check to fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("task rows exceed the file"), std::string::npos)
        << "actual message: " << e.what();
  }
  std::filesystem::remove(mangled);
}

TEST(CheckpointCorruption, HostileFingerprintCountDiesOnBoundsCheckNotAllocation) {
  std::vector<std::uint8_t> bytes = read_file(tiny().path);
  // The u64 pair count sits right after the "META" section tag.
  const std::uint8_t meta[4] = {'M', 'E', 'T', 'A'};
  const auto it = std::search(bytes.begin(), bytes.end(), std::begin(meta), std::end(meta));
  ASSERT_NE(it, bytes.end());
  const std::size_t count_at = static_cast<std::size_t>(it - bytes.begin()) + 4;
  const std::uint64_t huge = 0x4000000000000000ULL;
  std::memcpy(bytes.data() + count_at, &huge, sizeof(huge));
  const std::string mangled = temp_path("hugemeta.ckpt");
  write_file(mangled, bytes.data(), bytes.size());
  snn::SnnNetwork net(tiny().net_config);
  ShardedReplayEngine engine = tiny().engine();
  try {
    (void)load_checkpoint(mangled, tiny().fingerprint, net, nullptr, engine);
    FAIL() << "expected the pair-count bounds check to fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint pairs exceed the file"), std::string::npos)
        << "actual message: " << e.what();
  }
  std::filesystem::remove(mangled);
}

TEST(CheckpointCorruption, UnitCursorBeyondTheRunIsRejectedBeforeAnyState) {
  std::vector<std::uint8_t> bytes = read_file(tiny().path);
  // The u64 unit cursor ends META, right before the network's "SNET" tag.
  const std::uint8_t snet[4] = {'S', 'N', 'E', 'T'};
  const auto it = std::search(bytes.begin(), bytes.end(), std::begin(snet), std::end(snet));
  ASSERT_NE(it, bytes.end());
  const std::size_t cursor_at = static_cast<std::size_t>(it - bytes.begin()) - 8;
  std::uint64_t cursor = 0;
  std::memcpy(&cursor, bytes.data() + cursor_at, sizeof(cursor));
  ASSERT_EQ(cursor, 1u);
  const std::uint64_t beyond = 4;  // the tiny sequential run has 3 tasks
  std::memcpy(bytes.data() + cursor_at, &beyond, sizeof(beyond));
  const std::string mangled = temp_path("cursor.ckpt");
  write_file(mangled, bytes.data(), bytes.size());

  snn::NetworkConfig other = tiny().net_config;
  other.seed += 1;  // weights unlike the saved ones, so a load would show
  snn::SnnNetwork net(other);
  const snn::SnnNetwork before = net.clone();
  ShardedReplayEngine engine = tiny().engine();
  try {
    (void)load_checkpoint(mangled, tiny().fingerprint, net, nullptr, engine);
    ADD_FAILURE() << "expected the unit-cursor bound to fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt checkpoint: next unit 4 beyond the 3-unit run"),
              std::string::npos)
        << "actual message: " << e.what();
  }
  EXPECT_TRUE(weights_identical(net, before));
  EXPECT_EQ(engine.size(), 0u);
  std::filesystem::remove(mangled);
}

TEST(CheckpointCorruption, TrailingGarbageAfterEndTagIsRejected) {
  std::vector<std::uint8_t> bytes = read_file(tiny().path);
  bytes.push_back(0xAB);
  const std::string mangled = temp_path("trailing.ckpt");
  write_file(mangled, bytes.data(), bytes.size());
  snn::SnnNetwork net(tiny().net_config);
  ShardedReplayEngine engine = tiny().engine();
  try {
    (void)load_checkpoint(mangled, tiny().fingerprint, net, nullptr, engine);
    FAIL() << "expected the trailing-byte check to fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing byte"), std::string::npos)
        << "actual message: " << e.what();
  }
  std::filesystem::remove(mangled);
}

TEST(CheckpointCorruption, HostileVectorLengthDiesOnBoundsCheckNotAllocation) {
  // Serialize-level analogue: a length prefix whose n * sizeof(float) would
  // wrap or exceed the file must die in check_length, not in the allocator.
  const std::string path = temp_path("hugevec.bin");
  {
    BinaryWriter out(path);
    out.write_u64(0x2000000000000000ULL);  // * sizeof(float) wraps a u64
    out.write_f32(1.0f);
    out.close();
  }
  BinaryReader in(path);
  try {
    (void)in.read_f32_vector();
    FAIL() << "expected the length bounds check to fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << "actual message: " << e.what();
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Engine snapshot: entries, labels, counters, and importance scores (both the
// density proxy and trainer-fed outcome EMAs) round-trip per shard.

TEST(EngineSnapshot, RoundTripPreservesEntriesCountersAndImportance) {
  const compress::CodecConfig codec{};
  ReplayBufferConfig budget;
  budget.policy = ReplayPolicy::kLowImportance;
  budget.seed = 77;
  ShardedEngineConfig sharding;
  sharding.shards = 3;
  ShardedReplayEngine engine(codec, 8, budget, sharding);
  Rng fill(21);
  for (int i = 0; i < 9; ++i) {
    data::SpikeRaster r(8, 5);
    for (auto& b : r.bits) b = fill.bernoulli(0.2) ? 1 : 0;
    engine.add(r, i % 4);
  }
  engine.report_outcome(2, 0.75f);
  engine.report_outcome(5, 0.25f);

  const std::string path = temp_path("engine.snap");
  {
    BinaryWriter out(path);
    engine.save(out);
    out.close();
  }
  ShardedReplayEngine loaded(codec, 8, budget, sharding);
  {
    BinaryReader in(path);
    loaded.load(in);
    EXPECT_EQ(in.remaining(), 0u);
  }
  std::filesystem::remove(path);

  ASSERT_EQ(loaded.size(), engine.size());
  EXPECT_EQ(loaded.memory_bytes(), engine.memory_bytes());
  EXPECT_EQ(loaded.stream_seen(), engine.stream_seen());
  EXPECT_EQ(loaded.evictions(), engine.evictions());
  EXPECT_EQ(loaded.channels(), engine.channels());
  EXPECT_EQ(loaded.class_occupancy(), engine.class_occupancy());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    EXPECT_EQ(loaded.label_at(i), engine.label_at(i)) << "entry " << i;
    EXPECT_EQ(loaded.importance_at(i), engine.importance_at(i)) << "entry " << i;
  }
  // Decoded payloads match byte-for-byte.
  for (std::size_t i = 0; i < engine.size(); ++i) {
    data::Sample a, b;
    engine.decompress_into(i, a);
    loaded.decompress_into(i, b);
    EXPECT_EQ(a.raster.bits, b.raster.bits) << "entry " << i;
  }
  // ...and so does all future stochastic behaviour (restored eviction rngs).
  Rng draw_a(31), draw_b(31);
  EXPECT_EQ(engine.stream(4, draw_a).drawn(), loaded.stream(4, draw_b).drawn());
}

TEST(EngineSnapshot, ShardLayoutMismatchesArePinned) {
  const compress::CodecConfig codec{};
  ShardedReplayEngine engine(codec, 8, {}, {.shards = 2});
  const std::string path = temp_path("engine_mismatch.snap");
  {
    BinaryWriter out(path);
    engine.save(out);
    out.close();
  }
  ShardedReplayEngine wrong_count(codec, 8, {}, {.shards = 3});
  {
    BinaryReader in(path);
    EXPECT_THROW(wrong_count.load(in), Error);
  }
  ShardedReplayEngine wrong_key(codec, 8, {}, {.shards = 2, .shard_by = ShardKey::kHash});
  {
    BinaryReader in(path);
    EXPECT_THROW(wrong_key.load(in), Error);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Rng snapshots: the SplitMix64 state and the Box–Muller spare normal both
// round-trip; dropping the spare would shift every subsequent draw.

TEST(RngSnapshot, RoundTripContinuesTheRawStream) {
  Rng r(123);
  for (int i = 0; i < 5; ++i) (void)r();
  Rng q(999);
  q.restore(r.state());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r(), q());
}

TEST(RngSnapshot, SpareNormalIsPartOfTheStream) {
  Rng r(7);
  (void)r.normal();  // Box–Muller caches the second draw as the spare
  const Rng::State s = r.state();
  EXPECT_TRUE(s.have_spare_normal);

  Rng q(999);
  q.restore(s);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(r.normal(), q.normal());

  // Dropping the spare shifts the stream: the next draw differs.
  Rng dropped(999);
  Rng::State no_spare = s;
  no_spare.have_spare_normal = false;
  dropped.restore(no_spare);
  Rng again(999);
  again.restore(s);
  EXPECT_NE(again.normal(), dropped.normal());
}

// ---------------------------------------------------------------------------
// Optimizer snapshots: a loaded Adam optimizer continues the exact update
// sequence (m, v, t).

Tensor filled_tensor(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Tensor t(rows, cols);
  Rng rng(seed);
  t.fill_normal(rng, 0.5f);
  return t;
}

TEST(OptimizerSnapshot, AdamRoundTripContinuesIdentically) {
  const Tensor g1 = filled_tensor(3, 4, 1);
  const Tensor g2 = filled_tensor(3, 4, 2);
  Tensor w = filled_tensor(3, 4, 3);
  snn::AdamOptimizer a;
  a.step("layer.w", w, g1, 0.01f);  // builds non-trivial (m, v, t = 1) state

  const std::string path = temp_path("adam.snap");
  {
    BinaryWriter out(path);
    a.save(out);
    out.close();
  }
  snn::AdamOptimizer b;
  {
    BinaryReader in(path);
    b.load(in);
    EXPECT_EQ(in.remaining(), 0u);
  }
  std::filesystem::remove(path);
  EXPECT_EQ(b.num_states(), a.num_states());

  Tensor wa = w;
  Tensor wb = w;
  a.step("layer.w", wa, g2, 0.01f);
  b.step("layer.w", wb, g2, 0.01f);
  EXPECT_TRUE(tensor_equal(wa, wb))
      << "a restored Adam must take the bias-corrected t=2 step, not restart at t=1";

  // The restored moment shape is still verified against the live parameter.
  Tensor wrong_shape = filled_tensor(4, 3, 4);
  EXPECT_THROW(b.step("layer.w", wrong_shape, filled_tensor(4, 3, 5), 0.01f), Error);
}

}  // namespace
}  // namespace r4ncl::core
