// Extension experiment: a *stream* of new classes (the deployment setting
// the paper's Fig. 1(b) motivates, beyond its single-new-class evaluation).
//
// The network pre-trains on 16 classes; classes 16..19 then arrive one at a
// time.  After each task the engine records compressed latents of the new
// class into the replay buffer (on-device self-recording).  Reported per
// task: base-class accuracy, mean accuracy over learned stream classes,
// buffer growth, and cost — for SpikingLR vs Replay4NCL.
#include "common.hpp"
#include "core/sequential.hpp"
#include "util/logging.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(cfg, {"tasks"});
  const core::ScopedMetrics metrics(cfg);
  core::init_runtime(cfg);
  const std::size_t num_tasks = static_cast<std::size_t>(cfg.get_int("tasks", 4));
  const std::size_t epochs = static_cast<std::size_t>(cfg.get_int("epochs", 20));
  const bool verbose = cfg.get_bool("verbose", false);

  // Build the stream split (the base here is 20 − num_tasks classes, not the
  // standard scenario's 19).
  core::PretrainConfig pc = core::pretrain_config_from(cfg);
  const data::SyntheticShdGenerator generator(pc.data_params);
  const data::SequentialTasks tasks =
      data::build_sequential_tasks(generator, pc.split, num_tasks);

  R4NCL_INFO("pre-training on " << tasks.base_classes.size() << " base classes...");
  snn::SnnNetwork pretrained{pc.network};
  {
    snn::AdamOptimizer opt;
    snn::TrainOptions opts;
    opts.epochs = pc.epochs;
    opts.batch_size = pc.batch_size;
    opts.lr = pc.lr;
    opts.verbose = verbose;
    (void)snn::train_supervised(pretrained, tasks.pretrain_train, opt, opts);
  }

  ResultTable table({"method", "task", "class", "acc_base", "acc_stream", "acc_current",
                     "latent_bytes", "latency_ms"});
  struct MethodEntry {
    const char* name;
    core::NclMethodConfig method;
  };
  const MethodEntry methods[] = {
      {"SpikingLR", core::bench_spiking_lr()},
      {"Replay4NCL", core::bench_replay4ncl()},
  };
  for (const MethodEntry& m : methods) {
    snn::SnnNetwork net = pretrained.clone();
    core::SequentialRunConfig run;
    run.method = m.method;
    run.insertion_layer = 2;
    run.epochs_per_task = epochs;
    run.replay_per_new_class = pc.split.replay_per_class;
    run.verbose = verbose;
    const core::SequentialRunResult res = core::run_sequential(net, tasks, run);
    for (const auto& row : res.rows) {
      table.add_row();
      table.push(m.name);
      table.push(static_cast<long long>(row.task_index));
      table.push(static_cast<long long>(row.class_id));
      table.push(bench::pct(row.acc_base));
      table.push(bench::pct(row.acc_learned));
      table.push(bench::pct(row.acc_current));
      table.push(static_cast<long long>(row.latent_memory_bytes));
      table.push(format_double(row.latency_ms, 1));
    }
  }
  bench::emit(table, "ext_sequential_tasks",
              "Extension: sequential class stream (LR layer 2) — base retention, "
              "stream retention, buffer growth");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
