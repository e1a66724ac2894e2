#include "snn/trainer.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace r4ncl::snn {

namespace {

/// Fills `batch` and `labels` with the minibatch of up to `batch_size` rows
/// that starts at position `lo` of a sweep over `source` (row b is sample
/// order[lo + b], or lo + b when `order` is null).  Each sample is copied into the batch before the next fetch, so a lazy
/// source only ever needs its current sample alive — the streaming replay
/// contract.  Equal-shape minibatches reuse the batch's allocation.
void assemble_batch(const SampleSource& source, const std::vector<std::size_t>* order,
                    std::size_t lo, std::size_t batch_size, Tensor& batch,
                    std::vector<std::int32_t>& labels) {
  const std::size_t count = std::min(source.size, lo + batch_size) - lo;
  labels.clear();
  for (std::size_t b = 0; b < count; ++b) {
    const data::Sample& s = source.fetch(order != nullptr ? (*order)[lo + b] : lo + b);
    if (b == 0) {
      data::ensure_batch_shape(batch, s.raster.timesteps, count, s.raster.channels);
    } else {
      R4NCL_CHECK(s.raster.timesteps == batch.dim(0) && s.raster.channels == batch.dim(2),
                  "raster shape mismatch inside batch");
    }
    data::fill_batch_column(batch, b, s.raster);
    labels.push_back(s.label);
  }
}

}  // namespace

std::vector<EpochRecord> train_supervised(SnnNetwork& net, const data::Dataset& dataset,
                                          AdamOptimizer& optimizer, const TrainOptions& options,
                                          const EpochHook& hook) {
  SampleSource source;
  source.size = dataset.size();
  source.fetch = [&dataset](std::size_t i) -> const data::Sample& { return dataset[i]; };
  return train_supervised(net, source, optimizer, options, hook);
}

std::vector<EpochRecord> train_supervised(SnnNetwork& net, const SampleSource& source,
                                          AdamOptimizer& optimizer, const TrainOptions& options,
                                          const EpochHook& hook) {
  R4NCL_CHECK(source.size > 0, "cannot train on an empty dataset");
  R4NCL_CHECK(static_cast<bool>(source.fetch), "SampleSource.fetch must be set");
  R4NCL_CHECK(options.batch_size > 0, "batch_size must be positive");
  Rng shuffle_rng(options.shuffle_seed);
  std::vector<EpochRecord> history;
  history.reserve(options.epochs);
  std::vector<std::uint8_t> row_correct;
  // One scratch batch for the whole run (see assemble_batch).
  Tensor batch;
  std::vector<std::int32_t> labels;
  obs::MetricsRegistry& reg = obs::metrics();
  obs::Histogram& obs_epoch =
      reg.histogram("trainer.epoch_seconds", obs::kLatencyEdgesSeconds);
  obs::Counter& obs_epochs = reg.counter("trainer.epochs");
  obs::Histogram& obs_assemble =
      reg.histogram("pipeline.assemble_seconds", obs::kLatencyEdgesSeconds);
  obs::Histogram& obs_stall = reg.histogram("pipeline.stall_seconds", obs::kLatencyEdgesSeconds);

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    Stopwatch watch;
    EpochRecord rec;
    rec.epoch = epoch;
    const auto order = shuffle_rng.permutation(source.size);
    std::size_t correct = 0;
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t lo = 0; lo < source.size; lo += options.batch_size) {
      Stopwatch assembly;
      assemble_batch(source, &order, lo, options.batch_size, batch, labels);
      // The train loop waits for the whole assembly, so it is all stall.
      const double assembly_seconds = assembly.elapsed_seconds();
      obs_assemble.record(assembly_seconds);
      obs_stall.record(assembly_seconds);
      rec.assembly_seconds += assembly_seconds;
      const StepResult step =
          net.train_step(batch, labels, options.insertion_layer, options.policy, optimizer,
                         options.lr, options.mode, &rec.stats,
                         options.sample_outcome ? &row_correct : nullptr);
      loss_sum += step.loss;
      correct += step.correct;
      if (options.sample_outcome) {
        for (std::size_t b = 0; b < labels.size(); ++b) {
          options.sample_outcome(order[lo + b], row_correct[b] != 0 ? 0.0f : 1.0f);
        }
      }
      ++batches;
    }
    rec.loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
    rec.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(source.size);
    rec.wall_seconds = watch.elapsed_seconds();
    obs_epoch.record(rec.wall_seconds);
    obs_epochs.add(1);
    if (options.verbose) {
      R4NCL_INFO("epoch " << epoch << ": loss=" << rec.loss
                          << " train_acc=" << rec.train_accuracy << " ("
                          << rec.wall_seconds << "s, assembly "
                          << rec.assembly_seconds << "s)");
    }
    if (hook) hook(rec);
    history.push_back(std::move(rec));
  }
  return history;
}

double evaluate(const SnnNetwork& net, const data::Dataset& dataset,
                std::size_t insertion_layer, const ThresholdPolicy& policy,
                std::size_t batch_size, SpikeOpStats* stats) {
  SampleSource source;
  source.size = dataset.size();
  source.fetch = [&dataset](std::size_t i) -> const data::Sample& { return dataset[i]; };
  return evaluate(net, source, insertion_layer, policy, batch_size, stats);
}

double evaluate(const SnnNetwork& net, const SampleSource& source, std::size_t insertion_layer,
                const ThresholdPolicy& policy, std::size_t batch_size, SpikeOpStats* stats) {
  if (source.size == 0) return 0.0;
  obs::metrics().counter("trainer.evals").add(1);
  obs::TraceSpan eval_span(obs::metrics(), "trainer.eval_seconds");
  R4NCL_CHECK(static_cast<bool>(source.fetch), "SampleSource.fetch must be set");
  R4NCL_CHECK(batch_size > 0, "batch_size must be positive");
  std::size_t correct = 0;
  // One scratch batch reused across the whole sweep: samples stream through
  // it one at a time, so peak assembly memory is a single minibatch.
  Tensor batch;
  std::vector<std::int32_t> labels;
  for (std::size_t lo = 0; lo < source.size; lo += batch_size) {
    assemble_batch(source, nullptr, lo, batch_size, batch, labels);
    const Tensor logits = net.forward_logits(batch, insertion_layer, policy, stats);
    const auto preds = argmax_rows(logits);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == labels[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(source.size);
}

}  // namespace r4ncl::snn
