// Reference identity for the frozen-prefix memo and the one replay read path.
//
// The run engines call frozen_latents once per input set per run: TS_cl once
// per CL phase at the training blocking, each rescaled test set once per run
// at the evaluation blocking.  Every epoch then streams its draw of A_LR
// through a ReplayStream.  The references below are the per-epoch engine
// loops they replaced, without the checkpoint handling: the frozen prefix
// reruns over TS_cl every epoch (frozen_inference, this file's own copy, so
// no reference shares code with the memo under test; run_sequential's
// to_latents was the same function), every evaluation rescales its test
// sets again and runs the whole network from layer 0 (evaluate_tasks,
// accuracy_at), and A_LR is assembled one of the ways the engines used to
// choose between: streamed, or decoded up front (sample_into for a capped or
// fed-back draw, materialize for the whole store), with a local outcome
// hook.  Both engines must equal them bit for bit — every row's loss,
// accuracies, SpikeOpStats, modelled latency and energy, the final
// accuracies, the latent bytes, the buffer evictions and the final weights —
// over insertion {0..3} × fixed/adaptive θ × reference assembly streamed/
// decoded × low_importance feedback on/off × per-epoch draw all/4 × threads
// 1/4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/latent_source.hpp"
#include "core/pretrain.hpp"
#include "core/replay_stream.hpp"
#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "metrics/cost_model.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {
namespace {

// -- the test_cl_accounting micro scenario ------------------------------------

/// The test_cl_accounting micro scenario, with 7 test samples per class: the
/// 21-sample old-task test set is one evaluation block at the engines'
/// blocking of 32 and two at any blocking from 11 to 20, so a change of the
/// evaluation blocking shows in the scores.
PretrainConfig micro_config() {
  PretrainConfig cfg;
  cfg.network.layer_sizes = {24, 16, 12, 8};
  cfg.network.num_classes = 4;
  cfg.network.seed = 5;
  cfg.data_params.channels = 24;
  cfg.data_params.classes = 4;
  cfg.data_params.timesteps = 20;
  cfg.data_params.ridge_width = 3.0;
  cfg.data_params.position_pool = 5;
  cfg.data_params.channel_jitter = 1.5;
  cfg.data_params.time_jitter = 1.0;
  cfg.data_params.seed = 7;
  cfg.split.train_per_class = 6;
  cfg.split.test_per_class = 7;
  cfg.split.replay_per_class = 2;
  cfg.split.new_class = 3;
  cfg.split.seed = 9;
  cfg.epochs = 6;
  cfg.batch_size = 6;
  return cfg;
}

const PretrainedScenario& scenario() {
  static PretrainedScenario s = make_pretrained_scenario(micro_config());
  return s;
}

/// Two arriving classes (2 and 3) over base classes 0 and 1.
const data::SequentialTasks& stream_tasks() {
  static const data::SequentialTasks tasks = data::build_sequential_tasks(
      data::SyntheticShdGenerator(micro_config().data_params), micro_config().split, 2);
  return tasks;
}

// -- the per-epoch reference loops ----------------------------------------------

/// Runs the frozen prefix [0, insertion) over a dataset and returns the
/// latent dataset at the insertion point.  Identity when insertion == 0.
data::Dataset frozen_inference(const snn::SnnNetwork& net, const data::Dataset& dataset,
                               std::size_t insertion, const snn::ThresholdPolicy& policy,
                               std::size_t batch_size, snn::SpikeOpStats* stats) {
  if (insertion == 0 || dataset.empty()) return dataset;
  data::Dataset out;
  out.reserve(dataset.size());
  std::vector<std::size_t> indices(dataset.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  for (std::size_t lo = 0; lo < indices.size(); lo += batch_size) {
    const std::size_t hi = std::min(indices.size(), lo + batch_size);
    const std::span<const std::size_t> idx(indices.data() + lo, hi - lo);
    const Tensor x = data::make_batch(dataset, idx);
    const Tensor latent = net.run_hidden(x, 0, insertion, policy, stats);
    for (std::size_t b = 0; b < idx.size(); ++b) {
      out.push_back({data::batch_to_raster(latent, b), dataset[idx[b]].label});
    }
  }
  return out;
}

struct TaskAccuracy {
  double old_tasks = 0.0;
  double new_task = 0.0;
};

TaskAccuracy evaluate_tasks(const snn::SnnNetwork& net, const data::ClassIncrementalTasks& tasks,
                            const metrics::EvalSettings& settings) {
  TaskAccuracy acc;
  const data::Dataset old_test =
      data::time_rescale(tasks.pretrain_test, settings.timesteps, settings.rescale);
  const data::Dataset new_test =
      data::time_rescale(tasks.new_test, settings.timesteps, settings.rescale);
  acc.old_tasks = snn::evaluate(net, old_test, 0, settings.policy, settings.batch_size);
  acc.new_task = snn::evaluate(net, new_test, 0, settings.policy, settings.batch_size);
  return acc;
}

double accuracy_at(const snn::SnnNetwork& net, const data::Dataset& test,
                   const NclMethodConfig& method) {
  const data::Dataset rescaled = data::time_rescale(test, method.cl_timesteps, method.rescale);
  return snn::evaluate(net, rescaled, 0, method.policy());
}

/// The per-sample outcome hook of a CL epoch: training-set rows at or past
/// `new_count` are replay rows, and each one's error goes to the entry it
/// was drawn from.  `drawn` must outlive the hook.
std::function<void(std::size_t, float)> outcome_hook(ShardedReplayEngine& store,
                                                     const std::vector<std::size_t>& drawn,
                                                     std::size_t new_count) {
  return [&store, &drawn, new_count](std::size_t i, float error) {
    if (i >= new_count) store.report_outcome(drawn[i - new_count], error);
  };
}

/// `streamed` picks the reference's A_LR assembly: a ReplayStream, or the
/// draw decoded up front.
ClRunResult reference_continual(snn::SnnNetwork& net, const data::ClassIncrementalTasks& tasks,
                                const ClRunConfig& config, bool streamed) {
  const NclMethodConfig& method = config.method;
  if (method.threads > 0) set_num_threads(method.threads);
  const metrics::EnergyModel energy_model{};
  const metrics::LatencyModel latency_model{};
  const snn::ThresholdPolicy policy = method.policy();
  ClRunResult result;
  result.method_name = method.name;
  result.insertion_layer = config.insertion_layer;
  ReplayBufferConfig run_budget = method.replay_budget.with_run_seed(config.seed);
  if (method.budget_schedule.active()) {
    run_budget.capacity_bytes =
        method.budget_schedule.capacity_for_task(0, 1, run_budget.capacity_bytes);
  }
  ShardedReplayEngine buffer(method.storage_codec, method.cl_timesteps, run_budget,
                             method.replay_sharding);
  const bool importance_feedback = method.use_replay && method.importance_feedback &&
                                   is_importance_policy(method.replay_budget.policy);
  snn::AdamOptimizer optimizer;
  Rng epoch_rng(config.seed);
  Rng replay_rng(config.seed ^ kReplayDrawSeedSalt);
  if (method.use_replay) {
    const data::Dataset replay_rescaled =
        data::time_rescale(tasks.replay_subset, method.cl_timesteps, method.rescale);
    const data::Dataset latents =
        frozen_inference(net, replay_rescaled, config.insertion_layer, policy,
                         method.batch_size, &result.prep_stats);
    for (const auto& s : latents) buffer.add(s.raster, s.label);
    result.latent_memory_bytes = buffer.memory_bytes();
  }
  result.prep_latency_ms = latency_model.latency_ms(result.prep_stats);
  result.prep_energy_uj = energy_model.energy_uj(result.prep_stats);

  const data::Dataset new_train_rescaled =
      data::time_rescale(tasks.new_train, method.cl_timesteps, method.rescale);
  metrics::EvalSettings eval_settings;
  eval_settings.timesteps = method.cl_timesteps;
  eval_settings.rescale = method.rescale;
  eval_settings.policy = policy;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    ClEpochRow row;
    row.epoch = epoch;
    snn::TrainOptions opts;
    opts.epochs = 1;
    opts.batch_size = method.batch_size;
    opts.lr = method.lr_cl;
    opts.insertion_layer = config.insertion_layer;
    opts.policy = policy;
    opts.shuffle_seed = epoch_rng();
    std::vector<snn::EpochRecord> history;
    if (method.use_replay && streamed) {
      const data::Dataset latents = frozen_inference(
          net, new_train_rescaled, config.insertion_layer, policy, method.batch_size, &row.stats);
      const std::size_t new_count = latents.size();
      const std::size_t draw = method.replay_samples_per_epoch > 0
                                   ? method.replay_samples_per_epoch
                                   : buffer.size();
      ReplayStream stream = buffer.stream(draw, replay_rng, method.batch_size, &row.stats);
      snn::SampleSource source;
      source.size = new_count + stream.size();
      source.fetch = [&latents, &stream, new_count](std::size_t i) -> const data::Sample& {
        return i < new_count ? latents[i] : stream.fetch(i - new_count);
      };
      if (importance_feedback) {
        opts.sample_outcome = outcome_hook(buffer, stream.drawn(), new_count);
      }
      history = snn::train_supervised(net, source, optimizer, opts);
    } else {
      data::Dataset mixed = frozen_inference(net, new_train_rescaled, config.insertion_layer,
                                             policy, method.batch_size, &row.stats);
      const std::size_t new_count = mixed.size();
      std::vector<std::size_t> drawn;
      if (method.use_replay && importance_feedback) {
        const std::size_t draw = method.replay_samples_per_epoch > 0
                                     ? method.replay_samples_per_epoch
                                     : buffer.size();
        drawn = buffer.sample_into(draw, replay_rng, mixed, &row.stats);
        opts.sample_outcome = outcome_hook(buffer, drawn, new_count);
      } else if (method.use_replay && method.replay_samples_per_epoch > 0) {
        (void)buffer.sample_into(method.replay_samples_per_epoch, replay_rng, mixed, &row.stats);
      } else if (method.use_replay) {
        data::Dataset replay = buffer.materialize(&row.stats);
        mixed.insert(mixed.end(), std::make_move_iterator(replay.begin()),
                     std::make_move_iterator(replay.end()));
      }
      history = snn::train_supervised(net, mixed, optimizer, opts);
    }
    row.loss = history.front().loss;
    row.stats.add(history.front().stats);
    row.latency_ms = latency_model.latency_ms(row.stats);
    row.energy_uj = energy_model.energy_uj(row.stats);
    if ((epoch % config.eval_every == 0) || (epoch + 1 == config.epochs)) {
      const TaskAccuracy acc = evaluate_tasks(net, tasks, eval_settings);
      row.acc_old = acc.old_tasks;
      row.acc_new = acc.new_task;
      result.final_acc_old = acc.old_tasks;
      result.final_acc_new = acc.new_task;
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

/// As reference_continual; a method without replay stores, draws and
/// records nothing.
SequentialRunResult reference_sequential(snn::SnnNetwork& net, const data::SequentialTasks& tasks,
                                         const SequentialRunConfig& config, bool streamed) {
  const NclMethodConfig& method = config.method;
  if (method.threads > 0) set_num_threads(method.threads);
  const metrics::EnergyModel energy_model{};
  const metrics::LatencyModel latency_model{};
  const snn::ThresholdPolicy policy = method.policy();
  SequentialRunResult result;
  result.method_name = method.name;
  ReplayBufferConfig run_budget = method.replay_budget.with_run_seed(config.seed);
  if (method.budget_schedule.active()) {
    run_budget.capacity_bytes = method.budget_schedule.capacity_for_task(
        0, tasks.task_classes.size(), run_budget.capacity_bytes);
  }
  ShardedReplayEngine buffer(method.storage_codec, method.cl_timesteps, run_budget,
                             method.replay_sharding);
  Rng seed_rng(config.seed);
  Rng replay_rng(config.seed ^ kReplayDrawSeedSalt);
  if (method.use_replay) {
    snn::SpikeOpStats prep_stats;
    const data::Dataset rescaled =
        data::time_rescale(tasks.replay_subset, method.cl_timesteps, method.rescale);
    for (const auto& s : frozen_inference(net, rescaled, config.insertion_layer, policy,
                                          method.batch_size, &prep_stats)) {
      buffer.add(s.raster, s.label);
    }
    result.total_latency_ms += latency_model.latency_ms(prep_stats);
    result.total_energy_uj += energy_model.energy_uj(prep_stats);
  }

  const bool importance_feedback = method.use_replay && method.importance_feedback &&
                                   is_importance_policy(method.replay_budget.policy);
  for (std::size_t task = 0; task < tasks.task_classes.size(); ++task) {
    SequentialTaskRow row;
    row.task_index = task;
    row.class_id = tasks.task_classes[task];
    snn::SpikeOpStats task_stats;
    if (method.budget_schedule.active()) {
      buffer.set_capacity(method.budget_schedule.capacity_for_task(
          task, tasks.task_classes.size(), method.replay_budget.capacity_bytes));
    }
    const data::Dataset new_rescaled =
        data::time_rescale(tasks.task_train[task], method.cl_timesteps, method.rescale);
    snn::AdamOptimizer optimizer;
    for (std::size_t epoch = 0; epoch < config.epochs_per_task; ++epoch) {
      snn::TrainOptions opts;
      opts.epochs = 1;
      opts.batch_size = method.batch_size;
      opts.lr = method.lr_cl;
      opts.insertion_layer = config.insertion_layer;
      opts.policy = policy;
      opts.shuffle_seed = seed_rng();
      std::vector<snn::EpochRecord> history;
      if (method.use_replay && streamed) {
        const data::Dataset latents = frozen_inference(
            net, new_rescaled, config.insertion_layer, policy, method.batch_size, &task_stats);
        const std::size_t new_count = latents.size();
        const std::size_t draw = method.replay_samples_per_epoch > 0
                                     ? method.replay_samples_per_epoch
                                     : buffer.size();
        ReplayStream stream = buffer.stream(draw, replay_rng, method.batch_size, &task_stats);
        snn::SampleSource source;
        source.size = new_count + stream.size();
        source.fetch = [&latents, &stream, new_count](std::size_t i) -> const data::Sample& {
          return i < new_count ? latents[i] : stream.fetch(i - new_count);
        };
        if (importance_feedback) {
          opts.sample_outcome = outcome_hook(buffer, stream.drawn(), new_count);
        }
        history = snn::train_supervised(net, source, optimizer, opts);
      } else {
        data::Dataset mixed = frozen_inference(net, new_rescaled, config.insertion_layer, policy,
                                               method.batch_size, &task_stats);
        const std::size_t new_count = mixed.size();
        std::vector<std::size_t> drawn;
        if (importance_feedback) {
          const std::size_t draw = method.replay_samples_per_epoch > 0
                                       ? method.replay_samples_per_epoch
                                       : buffer.size();
          drawn = buffer.sample_into(draw, replay_rng, mixed, &task_stats);
          opts.sample_outcome = outcome_hook(buffer, drawn, new_count);
        } else if (method.use_replay && method.replay_samples_per_epoch > 0) {
          (void)buffer.sample_into(method.replay_samples_per_epoch, replay_rng, mixed,
                                   &task_stats);
        } else if (method.use_replay) {
          data::Dataset replay = buffer.materialize(&task_stats);
          mixed.insert(mixed.end(), std::make_move_iterator(replay.begin()),
                       std::make_move_iterator(replay.end()));
        }
        history = snn::train_supervised(net, mixed, optimizer, opts);
      }
      task_stats.add(history.front().stats);
    }
    if (method.use_replay) {
      data::Dataset keep = data::take_per_class(
          new_rescaled, std::span<const std::int32_t>(&row.class_id, 1),
          config.replay_per_new_class);
      for (const auto& s : frozen_inference(net, keep, config.insertion_layer, policy,
                                            method.batch_size, &task_stats)) {
        buffer.add(s.raster, s.label);
      }
    }
    row.latent_memory_bytes = buffer.memory_bytes();
    row.budget_bytes = buffer.capacity_bytes();
    row.buffer_entries = buffer.size();
    row.buffer_evictions = buffer.evictions();
    row.latency_ms = latency_model.latency_ms(task_stats);
    row.energy_uj = energy_model.energy_uj(task_stats);
    result.total_latency_ms += row.latency_ms;
    result.total_energy_uj += row.energy_uj;
    row.acc_base = accuracy_at(net, tasks.pretrain_test, method);
    double learned_sum = 0.0;
    for (std::size_t seen = 0; seen <= task; ++seen) {
      const double acc = accuracy_at(net, tasks.task_test[seen], method);
      learned_sum += acc;
      if (seen == task) row.acc_current = acc;
    }
    row.acc_learned = learned_sum / static_cast<double>(task + 1);
    result.rows.push_back(row);
  }
  return result;
}

// -- bitwise comparison ---------------------------------------------------------

void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_same_tensor(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)), 0) << what;
}

void expect_same_weights(const snn::SnnNetwork& a, const snn::SnnNetwork& b) {
  for (std::size_t l = 0; l < a.num_hidden(); ++l) {
    expect_same_tensor(a.hidden(l).w_ff(), b.hidden(l).w_ff(), "w_ff " + std::to_string(l));
    expect_same_tensor(a.hidden(l).w_rec(), b.hidden(l).w_rec(), "w_rec " + std::to_string(l));
  }
  expect_same_tensor(a.readout().w(), b.readout().w(), "readout w");
}

void expect_same_result(const ClRunResult& got, const ClRunResult& ref) {
  ASSERT_EQ(got.rows.size(), ref.rows.size());
  for (std::size_t e = 0; e < got.rows.size(); ++e) {
    const ClEpochRow& g = got.rows[e];
    const ClEpochRow& r = ref.rows[e];
    const std::string at = "epoch " + std::to_string(e);
    EXPECT_EQ(g.epoch, r.epoch) << at;
    expect_same_bits(g.loss, r.loss, at + " loss");
    expect_same_bits(g.acc_old, r.acc_old, at + " acc_old");
    expect_same_bits(g.acc_new, r.acc_new, at + " acc_new");
    EXPECT_EQ(g.stats, r.stats) << at;
    expect_same_bits(g.latency_ms, r.latency_ms, at + " latency_ms");
    expect_same_bits(g.energy_uj, r.energy_uj, at + " energy_uj");
  }
  EXPECT_EQ(got.prep_stats, ref.prep_stats);
  expect_same_bits(got.prep_latency_ms, ref.prep_latency_ms, "prep latency_ms");
  expect_same_bits(got.prep_energy_uj, ref.prep_energy_uj, "prep energy_uj");
  expect_same_bits(got.final_acc_old, ref.final_acc_old, "final_acc_old");
  expect_same_bits(got.final_acc_new, ref.final_acc_new, "final_acc_new");
  EXPECT_EQ(got.latent_memory_bytes, ref.latent_memory_bytes);
}

void expect_same_result(const SequentialRunResult& got, const SequentialRunResult& ref) {
  ASSERT_EQ(got.rows.size(), ref.rows.size());
  for (std::size_t t = 0; t < got.rows.size(); ++t) {
    const SequentialTaskRow& g = got.rows[t];
    const SequentialTaskRow& r = ref.rows[t];
    const std::string at = "task " + std::to_string(t);
    expect_same_bits(g.acc_base, r.acc_base, at + " acc_base");
    expect_same_bits(g.acc_learned, r.acc_learned, at + " acc_learned");
    expect_same_bits(g.acc_current, r.acc_current, at + " acc_current");
    EXPECT_EQ(g.latent_memory_bytes, r.latent_memory_bytes) << at;
    EXPECT_EQ(g.budget_bytes, r.budget_bytes) << at;
    EXPECT_EQ(g.buffer_entries, r.buffer_entries) << at;
    EXPECT_EQ(g.buffer_evictions, r.buffer_evictions) << at;
    expect_same_bits(g.latency_ms, r.latency_ms, at + " latency_ms");
    expect_same_bits(g.energy_uj, r.energy_uj, at + " energy_uj");
  }
  expect_same_bits(got.total_latency_ms, ref.total_latency_ms, "total_latency_ms");
  expect_same_bits(got.total_energy_uj, ref.total_energy_uj, "total_energy_uj");
}

// -- the matrix ---------------------------------------------------------------------

/// insertion, adaptive θ, the reference's A_LR assembly (true = streamed,
/// false = decoded up front), low_importance feedback, per-epoch draw (0 =
/// the whole buffer), threads.
using MemoCase = std::tuple<std::size_t, bool, bool, bool, std::size_t, int>;

/// Stored bytes of one latent entry at `insertion` under `method`'s codec.
std::size_t entry_bytes(const NclMethodConfig& method, std::size_t insertion) {
  LatentReplayBuffer probe(method.storage_codec, method.cl_timesteps);
  (void)probe.add(data::SpikeRaster(method.cl_timesteps,
                                    scenario().net.insertion_width(insertion)),
                  0);
  return probe.memory_bytes();
}

NclMethodConfig case_method(const MemoCase& c) {
  const auto [insertion, adaptive, streamed, feedback, draw, threads] = c;
  NclMethodConfig m = NclMethodConfig::replay4ncl(10);
  m.batch_size = 6;
  m.adaptive_threshold = adaptive;
  // θ then adapts at every timestep to the spikes of the whole block, so the
  // latents, and the scores, depend on the blocking.
  m.adjust_interval = 1;
  m.replay_budget.policy = ReplayPolicy::kLowImportance;
  m.importance_feedback = feedback;
  m.replay_samples_per_epoch = draw;
  m.threads = threads;
  return m;
}

class PrefixMemoIdentity : public ::testing::TestWithParam<MemoCase> {
 protected:
  void TearDown() override { set_num_threads(1); }
};

TEST_P(PrefixMemoIdentity, ContinualMatchesPerEpochReference) {
  ClRunConfig cfg;
  cfg.method = case_method(GetParam());
  cfg.insertion_layer = std::get<0>(GetParam());
  cfg.epochs = 3;
  cfg.eval_every = 2;  // epochs 0 and 2 evaluated, epoch 1 not
  // One entry short of TS_replay: preparation evicts.
  cfg.method.replay_budget.capacity_bytes =
      entry_bytes(cfg.method, cfg.insertion_layer) * (scenario().tasks.replay_subset.size() - 1);
  snn::SnnNetwork net = scenario().net.clone();
  snn::SnnNetwork ref_net = scenario().net.clone();
  const ClRunResult got = run_continual_learning(net, scenario().tasks, cfg);
  const ClRunResult ref =
      reference_continual(ref_net, scenario().tasks, cfg, std::get<2>(GetParam()));
  expect_same_result(got, ref);
  expect_same_weights(net, ref_net);
}

TEST_P(PrefixMemoIdentity, SequentialMatchesPerEpochReference) {
  SequentialRunConfig cfg;
  cfg.method = case_method(GetParam());
  cfg.insertion_layer = std::get<0>(GetParam());
  cfg.epochs_per_task = 2;
  cfg.replay_per_new_class = 2;
  // Room for TS_replay plus one recording: both tasks' recordings evict.
  cfg.method.replay_budget.capacity_bytes =
      entry_bytes(cfg.method, cfg.insertion_layer) * (stream_tasks().replay_subset.size() + 1);
  snn::SnnNetwork net = scenario().net.clone();
  snn::SnnNetwork ref_net = scenario().net.clone();
  const SequentialRunResult got = run_sequential(net, stream_tasks(), cfg);
  const SequentialRunResult ref =
      reference_sequential(ref_net, stream_tasks(), cfg, std::get<2>(GetParam()));
  ASSERT_GT(got.rows.back().buffer_evictions, 0u);
  expect_same_result(got, ref);
  expect_same_weights(net, ref_net);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PrefixMemoIdentity,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                                         std::size_t{3}),
                       ::testing::Bool(), ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(std::size_t{0}, std::size_t{4}), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<MemoCase>& info) {
      const MemoCase& c = info.param;
      return "L" + std::to_string(std::get<0>(c)) + (std::get<1>(c) ? "_adaptive" : "_fixed") +
             (std::get<2>(c) ? "_stream" : "_dense") +
             (std::get<3>(c) ? "_feedback" : "_nofeedback") + "_draw" +
             std::to_string(std::get<4>(c)) + "_t" + std::to_string(std::get<5>(c));
    });

TEST(PrefixMemoIdentityNoReplay, ContinualMatchesPerEpochReference) {
  for (std::size_t insertion = 0; insertion <= 3; ++insertion) {
    ClRunConfig cfg;
    cfg.method = NclMethodConfig::naive_baseline();
    cfg.method.cl_timesteps = 20;
    cfg.method.batch_size = 6;
    cfg.insertion_layer = insertion;
    cfg.epochs = 2;
    snn::SnnNetwork net = scenario().net.clone();
    snn::SnnNetwork ref_net = scenario().net.clone();
    const ClRunResult got = run_continual_learning(net, scenario().tasks, cfg);
    const ClRunResult ref = reference_continual(ref_net, scenario().tasks, cfg, true);
    SCOPED_TRACE("insertion " + std::to_string(insertion));
    expect_same_result(got, ref);
    expect_same_weights(net, ref_net);
  }
}

TEST(PrefixMemoIdentityNoReplay, SequentialMatchesPerEpochReference) {
  for (std::size_t insertion = 0; insertion <= 3; ++insertion) {
    SequentialRunConfig cfg;
    cfg.method = NclMethodConfig::naive_baseline();
    cfg.method.cl_timesteps = 20;
    cfg.method.batch_size = 6;
    cfg.insertion_layer = insertion;
    cfg.epochs_per_task = 2;
    snn::SnnNetwork net = scenario().net.clone();
    snn::SnnNetwork ref_net = scenario().net.clone();
    const SequentialRunResult got = run_sequential(net, stream_tasks(), cfg);
    const SequentialRunResult ref = reference_sequential(ref_net, stream_tasks(), cfg, true);
    SCOPED_TRACE("insertion " + std::to_string(insertion));
    expect_same_result(got, ref);
    expect_same_weights(net, ref_net);
  }
}

// -- the library's prefix telemetry ---------------------------------------------------

/// Arms the process-wide registry for one test and restores its disarmed,
/// zeroed default afterwards, so armed state cannot leak into other tests.
struct ArmedRegistry {
  ArmedRegistry() {
    obs::metrics().reset_values();
    obs::metrics().set_trace(true);
    obs::metrics().set_armed(true);
  }
  ~ArmedRegistry() {
    obs::metrics().set_armed(false);
    obs::metrics().reset_values();
  }
  ArmedRegistry(const ArmedRegistry&) = delete;
  ArmedRegistry& operator=(const ArmedRegistry&) = delete;
};

std::uint64_t prefix_samples() { return obs::metrics().counter("core.prefix_samples").value(); }

std::uint64_t prefix_passes() {
  return obs::metrics().histogram("core.prefix_seconds", obs::kLatencyEdgesSeconds).count();
}

TEST(PrefixMemoObs, ContinualRunsOnePrefixPassPerSet) {
  const data::ClassIncrementalTasks& tasks = scenario().tasks;
  ClRunConfig cfg;
  cfg.method = NclMethodConfig::replay4ncl(10);
  cfg.method.batch_size = 6;
  cfg.insertion_layer = 2;
  cfg.epochs = 3;
  snn::SnnNetwork net = scenario().net.clone();
  const ArmedRegistry armed;
  (void)run_continual_learning(net, tasks, cfg);
  // TS_replay, TS_cl and both test sets, each once — not TS_cl per epoch.
  EXPECT_EQ(prefix_samples(), tasks.replay_subset.size() + tasks.new_train.size() +
                                  tasks.pretrain_test.size() + tasks.new_test.size());
  EXPECT_EQ(prefix_passes(), 4u);
}

TEST(PrefixMemoObs, SequentialRunsOnePrefixPassPerSet) {
  const data::SequentialTasks& tasks = stream_tasks();
  SequentialRunConfig cfg;
  cfg.method = NclMethodConfig::replay4ncl(10);
  cfg.method.batch_size = 6;
  cfg.insertion_layer = 2;
  cfg.epochs_per_task = 3;
  cfg.replay_per_new_class = 2;
  snn::SnnNetwork net = scenario().net.clone();
  const ArmedRegistry armed;
  (void)run_sequential(net, tasks, cfg);
  // TS_replay and every test set once, then per task its TS_cl and its
  // recordings once.
  std::uint64_t expected = tasks.replay_subset.size() + tasks.pretrain_test.size();
  for (std::size_t t = 0; t < tasks.task_classes.size(); ++t) {
    expected += tasks.task_test[t].size() + tasks.task_train[t].size() + cfg.replay_per_new_class;
  }
  EXPECT_EQ(prefix_samples(), expected);
  EXPECT_EQ(prefix_passes(), 2 + 3 * tasks.task_classes.size());
}

TEST(PrefixMemoObs, InsertionZeroRunsNoPrefix) {
  ClRunConfig cfg;
  cfg.method = NclMethodConfig::replay4ncl(10);
  cfg.method.batch_size = 6;
  cfg.insertion_layer = 0;
  cfg.epochs = 2;
  snn::SnnNetwork net = scenario().net.clone();
  const ArmedRegistry armed;
  (void)run_continual_learning(net, scenario().tasks, cfg);
  // Without a prefix the memo hands the moved-in inputs back: same storage.
  data::Dataset inputs = data::time_rescale(scenario().tasks.new_train,
                                            cfg.method.cl_timesteps, cfg.method.rescale);
  const data::Sample* storage = inputs.data();
  const data::Dataset latents = frozen_latents(net, std::move(inputs), 0, cfg.method.policy(),
                                               cfg.method.batch_size, nullptr);
  EXPECT_EQ(latents.data(), storage);
  EXPECT_EQ(prefix_samples(), 0u);
  EXPECT_EQ(prefix_passes(), 0u);
}

}  // namespace
}  // namespace r4ncl::core
