// Extension experiment: latent replay under a hard byte budget.
//
// The paper's Fig. 12 treats latent memory as the scarce on-device resource
// but lets the buffer grow with the stream; here the buffer gets a *fixed*
// capacity and an eviction policy, the deployment reality of embedded latent
// replay (Pellegrini et al.; Ravaglia et al.).  Three sweeps share one table:
//
// 1. budget × policy (legacy storage): a sequential class stream runs once
//    unbounded per method to establish the footprint and accuracy ceiling,
//    then once per (budget fraction × policy) cell for Replay4NCL — the
//    content-blind policies (fifo / reservoir / class_balanced) against the
//    importance-aware pair (low_importance / importance_class_balanced,
//    insert-time spike density refined by per-sample trainer error
//    feedback).  The headline comparison lives at the tightest fraction.
// 2. codec × latent_bits: both methods — Replay4NCL (raw T* = 40 storage)
//    and SpikingLR (ratio-2 codec at T = 100) — run under one *fixed* byte
//    capacity at stored depths 0 (legacy binary), 8, 4 and 2 bits/element.
//    The capacity is sized so the 8-bit configuration is budget-starved;
//    halving the depth must roughly double the resident entries (the
//    Ravaglia et al. effect the quantized payload path exists for).
// 3. budget schedules: the byte budget *moves* during the stream —
//    linear:<full>:<quarter> (another subsystem claiming the region
//    gradually) and step:<mid-task>:<quarter> (an abrupt reclaim) — each
//    under reservoir and low_importance eviction, landing on the same final
//    cap as sweep 1's tightest fraction so the end states compare directly.
//
// Reported per cell: final buffer bytes, resident entries, evictions, mean
// stream accuracy, accuracy drop vs that method's unbounded run, and
// modelled latency.
//
// Extra knobs on top of the common ones (key=value or R4NCL_<KEY>):
//   tasks=4            stream length (arriving classes)
//   epochs=16          CL epochs per task
//   replay_per_task=8  latents recorded per learned class (2 — the single-
//                      task default — leaves stream classes too thin to
//                      retain, which would drown the policy deltas in noise)
//   replay_samples=0   per-epoch sample(k) draw (0 = full materialize)
//   spiking_lr=1       include the SpikingLR codec path in the bits sweep
// budget=/policy=/latent_bits= are rejected as unknown keys — the sweep itself
// owns those axes.
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/sequential.hpp"
#include "util/logging.hpp"

using namespace r4ncl;

namespace {

/// Stored bytes of one latent entry of the given geometry under `codec` —
/// all entries of a stream share the insertion-layer geometry, so one probe
/// add() prices the whole buffer.
std::size_t probe_entry_bytes(const compress::CodecConfig& codec, std::size_t timesteps,
                              std::size_t channels) {
  core::LatentReplayBuffer probe(codec, timesteps);
  probe.add(data::SpikeRaster(timesteps, channels), 0);
  return probe.memory_bytes();
}

int run_main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(cfg, {"tasks", "replay_per_task", "replay_samples", "spiking_lr"});
  const core::ScopedMetrics metrics(cfg);
  core::init_runtime(cfg);
  const std::size_t num_tasks = static_cast<std::size_t>(cfg.get_int("tasks", 4));
  const std::size_t epochs = static_cast<std::size_t>(cfg.get_int("epochs", 16));
  const bool verbose = cfg.get_bool("verbose", false);

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

  core::SequentialRunConfig run;
  run.method = core::bench_replay4ncl();
  // The sweep owns budget/policy/latent_bits, so of the replay CLI knobs only
  // the per-epoch draw applies here (the others work on budget_stream).
  run.method.replay_samples_per_epoch =
      static_cast<std::size_t>(cfg.get_int("replay_samples", 0));
  run.insertion_layer = 2;
  run.epochs_per_task = epochs;
  run.replay_per_new_class =
      static_cast<std::size_t>(cfg.get_int("replay_per_task", 8));
  run.verbose = verbose;

  const auto run_stream = [&](const core::NclMethodConfig& method, std::size_t capacity,
                              core::ReplayPolicy policy,
                              const core::BudgetSchedule& schedule = {}) {
    snn::SnnNetwork net = pretrained.clone();
    core::SequentialRunConfig bounded = run;
    bounded.method = method;
    bounded.method.replay_samples_per_epoch = run.method.replay_samples_per_epoch;
    bounded.method.replay_budget.capacity_bytes = capacity;
    bounded.method.replay_budget.policy = policy;
    bounded.method.budget_schedule = schedule;
    return core::run_sequential(net, tasks, bounded);
  };

  ResultTable table({"method", "latent_bits", "budget_frac", "budget_bytes", "policy",
                     "schedule", "final_bytes", "entries", "evictions", "acc_base",
                     "acc_learned", "delta_vs_unbounded", "latency_ms"});
  const auto add_row = [&](const core::NclMethodConfig& method, const std::string& frac,
                           std::size_t capacity, std::string_view policy,
                           const core::SequentialRunResult& res, double reference_acc,
                           const core::BudgetSchedule& schedule = {}) {
    const auto& last = res.rows.back();
    table.add_row();
    table.push(method.name);
    table.push(static_cast<long long>(method.storage_codec.latent_bits));
    table.push(frac);
    table.push(static_cast<long long>(capacity));
    table.push(std::string(policy));
    table.push(schedule.spec());
    table.push(static_cast<long long>(last.latent_memory_bytes));
    table.push(static_cast<long long>(last.buffer_entries));
    table.push(static_cast<long long>(last.buffer_evictions));
    table.push(bench::pct(last.acc_base));
    table.push(bench::pct(last.acc_learned));
    table.push(bench::pct(last.acc_learned - reference_acc));
    table.push(format_double(res.total_latency_ms, 1));
  };

  // ---- Sweep 1: budget × policy (legacy storage, Replay4NCL) --------------
  const core::SequentialRunResult unbounded =
      run_stream(run.method, 0, core::ReplayPolicy::kFifo);
  const std::size_t full_bytes = unbounded.rows.back().latent_memory_bytes;
  const double full_acc = unbounded.rows.back().acc_learned;
  R4NCL_INFO("unbounded stream: " << full_bytes << " B, acc_learned "
                                  << bench::pct(full_acc) << "%");
  add_row(run.method, "1.00", 0, "unbounded", unbounded, full_acc);

  const double fractions[] = {0.75, 0.5, 0.25};
  const core::ReplayPolicy policies[] = {core::ReplayPolicy::kFifo,
                                         core::ReplayPolicy::kReservoir,
                                         core::ReplayPolicy::kClassBalanced,
                                         core::ReplayPolicy::kLowImportance,
                                         core::ReplayPolicy::kImportanceClassBalanced};
  for (const double frac : fractions) {
    const std::size_t capacity =
        static_cast<std::size_t>(static_cast<double>(full_bytes) * frac);
    for (const core::ReplayPolicy policy : policies) {
      const core::SequentialRunResult res = run_stream(run.method, capacity, policy);
      add_row(run.method, format_double(frac, 2), capacity, core::to_string(policy), res,
              full_acc);
    }
  }

  // ---- Sweep 3: moving budgets (schedule × policy) ------------------------
  // Both schedules land on sweep 1's tightest cap, so their final states
  // compare directly against the const-budget 0.25 rows: linear cedes the
  // region one task at a time, step halves the stream then reclaims at once.
  {
    const std::size_t quarter =
        static_cast<std::size_t>(static_cast<double>(full_bytes) * 0.25);
    core::BudgetSchedule linear;
    linear.kind = core::BudgetScheduleKind::kLinear;
    linear.linear_start = full_bytes;
    linear.linear_end = quarter;
    core::BudgetSchedule step;
    step.kind = core::BudgetScheduleKind::kStep;
    step.step_task = num_tasks / 2;
    step.step_bytes = quarter;
    for (const core::BudgetSchedule& schedule : {linear, step}) {
      for (const core::ReplayPolicy policy :
           {core::ReplayPolicy::kReservoir, core::ReplayPolicy::kLowImportance}) {
        const core::SequentialRunResult res =
            run_stream(run.method, full_bytes, policy, schedule);
        add_row(run.method, "sched", res.rows.back().budget_bytes,
                core::to_string(policy), res, full_acc, schedule);
      }
    }
  }

  // ---- Sweep 2: codec × latent_bits at one fixed capacity -----------------
  // Capacity per method: a quarter of the stream's total 8-bit demand, so
  // the 8-bit run is hard-starved and every halving of the depth shows up as
  // ~2x resident entries.  Reservoir keeps retention stream-uniform, so the
  // entry count — not selection luck — drives the accuracy delta.
  const std::size_t stream_entries =
      tasks.replay_subset.size() + num_tasks * run.replay_per_new_class;
  std::vector<core::NclMethodConfig> codec_methods = {core::bench_replay4ncl()};
  if (cfg.get_bool("spiking_lr", true)) codec_methods.push_back(core::bench_spiking_lr());
  const std::uint8_t depths[] = {0, 8, 4, 2};
  for (const core::NclMethodConfig& base : codec_methods) {
    const std::size_t width = pc.network.layer_sizes[run.insertion_layer];
    const std::size_t entry8 = probe_entry_bytes(
        base.with_latent_bits(8).storage_codec, base.cl_timesteps, width);
    const std::size_t capacity = entry8 * (stream_entries / 4);
    std::optional<core::SequentialRunResult> method_ref;
    double reference_acc = full_acc;
    if (base.name != run.method.name) {
      method_ref = run_stream(base, 0, core::ReplayPolicy::kFifo);
      reference_acc = method_ref->rows.back().acc_learned;
      add_row(base, "1.00", 0, "unbounded", *method_ref, reference_acc);
    }
    for (const std::uint8_t bits : depths) {
      const core::NclMethodConfig method = base.with_latent_bits(bits);
      if (bits == 0) {
        // The legacy binary payload is ~1/8 the 8-bit entry size, so this
        // capacity never evicts at depth 0 and the run would reproduce the
        // unbounded reference exactly — reuse it instead of retraining.
        add_row(method, "quant", capacity, "reservoir",
                method_ref ? *method_ref : unbounded, reference_acc);
        continue;
      }
      const core::SequentialRunResult res =
          run_stream(method, capacity, core::ReplayPolicy::kReservoir);
      add_row(method, "quant", capacity, "reservoir", res, reference_acc);
    }
  }

  bench::emit(table, "ext_memory_budget",
              "Extension: capacity-bounded latent replay (LR layer 2) — budget x policy "
              "sweep plus codec x latent_bits sweep over a sequential class stream");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
