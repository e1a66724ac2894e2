// Sequential multi-task neuromorphic continual learning.
//
// Extension of the paper's single-new-class experiment to a *stream* of new
// classes — the deployment setting its Fig. 1(b) motivates (a mobile agent
// keeps encountering new categories).  For each arriving class the engine
// runs the Alg. 1 CL phase against the current replay buffer, then records
// latent activations of the *just-learned* class through the frozen prefix
// and adds them to the buffer (on-device self-recording: the raw samples are
// discarded, only compressed latents persist — exactly what the latent-
// replay memory is for).  A method without replay (use_replay off, e.g.
// NclMethodConfig::naive_baseline()) stores and records nothing.
#pragma once

#include <vector>

#include "core/continual_trainer.hpp"
#include "data/tasks.hpp"

namespace r4ncl::core {

/// Configuration of a sequential run.
struct SequentialRunConfig {
  NclMethodConfig method;
  std::size_t insertion_layer = 2;
  std::size_t epochs_per_task = 20;
  /// Latent samples recorded per newly learned class.
  std::size_t replay_per_new_class = 2;
  std::uint64_t seed = 4242;
  bool verbose = false;
};

/// Result row after finishing task i.
struct SequentialTaskRow {
  std::size_t task_index = 0;
  std::int32_t class_id = 0;
  /// Accuracy on the base (pre-training) test set.
  double acc_base = 0.0;
  /// Mean accuracy over the test sets of all tasks learned so far.
  double acc_learned = 0.0;
  /// Accuracy on the just-learned task's test set.
  double acc_current = 0.0;
  /// Replay-buffer footprint after recording this task's latents.
  std::size_t latent_memory_bytes = 0;
  /// Byte budget in force during this task (0 = unbounded) — varies across
  /// rows when the method carries an active BudgetSchedule.
  std::size_t budget_bytes = 0;
  /// Stored replay entries / cumulative budget evictions after this task
  /// (evictions stay 0 on unbounded runs).
  std::size_t buffer_entries = 0;
  std::size_t buffer_evictions = 0;
  double latency_ms = 0.0;  // modelled cost of this task's CL phase
  double energy_uj = 0.0;

  [[nodiscard]] bool operator==(const SequentialTaskRow&) const noexcept = default;
};

/// Complete sequential-run record; a resumed stream equals an uninterrupted
/// one as a whole.
struct SequentialRunResult {
  std::string method_name;
  std::vector<SequentialTaskRow> rows;
  double total_latency_ms = 0.0;
  double total_energy_uj = 0.0;

  [[nodiscard]] bool operator==(const SequentialRunResult&) const = default;
};

/// Runs the task stream on a pre-trained network (mutated in place).
/// `ckpt` saves and resumes the run at task boundaries, as for
/// run_continual_learning.
SequentialRunResult run_sequential(snn::SnnNetwork& net, const data::SequentialTasks& tasks,
                                   const SequentialRunConfig& config,
                                   const CheckpointOptions& ckpt = {});

}  // namespace r4ncl::core
