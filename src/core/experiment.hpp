// Canonical experiment setup shared by benches, examples and integration
// tests: the paper's network/dataset geometry with a single scale knob so the
// full suite runs on small machines.
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/continual_trainer.hpp"
#include "core/pretrain.hpp"
#include "util/config.hpp"

namespace r4ncl::core {

/// Builds the paper-faithful pre-training configuration.
///
/// `scale` ∈ (0, 1] shrinks the *sample counts* (never the architecture or
/// timesteps): scale = 1 uses 12 train / 8 test / 4 replay samples per class.
/// Values are floored at 4/4/2 so every class stays represented.
PretrainConfig standard_pretrain_config(double scale = 1.0);

/// Reads the scenario knobs from `cfg` (CLI "key=value" tokens and
/// R4NCL_* environment variables): scale (double) and pretrain_epochs —
/// returns the resulting pretrain configuration.
PretrainConfig pretrain_config_from(const Config& cfg);

/// Applies the process-wide knobs before any pre-training: the log
/// level (R4NCL_LOG) and threads= (the CLI value, or R4NCL_THREADS), a
/// non-negative worker count where 0 keeps the default.  A negative or
/// non-numeric threads value throws Error naming it.  Every binary that
/// takes threads= calls this (standard_scenario does it for its callers).
void init_runtime(const Config& cfg);

/// Shared bench boilerplate: init_runtime(cfg), then pre-train the standard
/// scenario honouring `cfg` (scale, pretrain_epochs, verbose).
PretrainedScenario standard_scenario(const Config& cfg);

/// The two comparison methods as run by every bench.
///
/// bench_replay4ncl() applies one documented adaptation of Alg. 1 to the
/// repo-scale dataset: the paper's η_cl = η_pre/100 assumes SHD-sized epochs
/// (hundreds of optimizer steps); our synthetic scenario runs ~6 steps per
/// epoch, so the same *total* update magnitude requires η_cl = η_pre/5.  The
/// paper-exact divisor stays available via NclMethodConfig::replay4ncl() and
/// is exercised by the adjustment-ablation bench.
NclMethodConfig bench_replay4ncl(std::size_t timesteps = 40);
NclMethodConfig bench_spiking_lr();

/// One row of the standard CLI knob table: the knob's key, its one-line help
/// text, and — for replay-method knobs — the override that parses, validates
/// and applies it to an NclMethodConfig.  Scenario, checkpoint and telemetry
/// knobs are parsed by their own readers (pretrain_config_from,
/// checkpoint_options_from, init_metrics) and carry a null `apply`.
struct CliKnob {
  std::string_view name;
  std::string_view help;
  void (*apply)(NclMethodConfig&, const Config&) = nullptr;
};

/// The declarative knob table every standard bench/example shares, sorted by
/// name.  standard_cli_keys() and apply_replay_overrides() both derive from
/// it, so a new knob registers exactly once: add a row here and it is
/// simultaneously parsed, validated and listed in unknown-key errors.
[[nodiscard]] std::span<const CliKnob> standard_cli_knobs();

/// Applies every replay-method knob in standard_cli_knobs() to `method`
/// (budget, policy, budget_schedule, replay_samples, latent_bits, threads,
/// replay_seed, importance_feedback, shards, shard_by — see each row's
/// `help` for semantics).  Keys absent
/// from `cfg` (and the R4NCL_* environment) leave the method's own defaults
/// untouched.  Every value validates eagerly with a pinned message naming
/// the valid set — negative bytes/counts/seeds, policy typos and malformed
/// schedules all throw before any training runs.
void apply_replay_overrides(NclMethodConfig& method, const Config& cfg);

/// Telemetry knobs as read by init_metrics().
struct MetricsOptions {
  std::string out_path;  ///< metrics_out= destination; empty = no snapshot.
  bool trace = true;     ///< trace= — wall-clock histograms in the registry.
};

/// Reads the telemetry CLI knobs and arms the process-wide registry:
///   metrics_out=<path>  write the obs::MetricsRegistry snapshot (JSON) here
///   trace=<0|1>         include wall-clock trace histograms (default 1)
/// The registry arms only when metrics_out= or trace= is given, so plain
/// runs keep the disarmed (bit-identical, near-zero-cost) fast path.
/// Throws Error ("cannot open metrics_out path …") when the path does not
/// open for writing, before the registry is touched.  Binaries call it
/// through ScopedMetrics, right after validating their keys.
[[nodiscard]] MetricsOptions init_metrics(const Config& cfg);

/// Writes the registry snapshot to options.out_path (no-op when empty).
void write_metrics_snapshot(const MetricsOptions& options);

/// RAII wrapper over init_metrics()/write_metrics_snapshot(): arms the
/// registry from `cfg` at construction and writes the metrics_out= snapshot
/// at scope exit — one line in a main (or one member of
/// bench::BenchContext) covers every return path.  It neither copies nor
/// moves: build it in place.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(const Config& cfg) : options_(init_metrics(cfg)) {}
  ~ScopedMetrics() { write_metrics_snapshot(options_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsOptions options_;
};

/// Reads the checkpoint/resume CLI knobs:
///   checkpoint=<path>        write a checkpoint at every cadence boundary
///   resume=<path>            restore a prior checkpoint before any unit runs
///   checkpoint_every=<n>     save cadence in completed tasks/epochs (>= 1)
/// Validation is eager with pinned errors: checkpoint_every below 1 and a
/// cadence given without checkpoint= both throw before any training runs.
[[nodiscard]] CheckpointOptions checkpoint_options_from(const Config& cfg);

/// The whole standard CLI vocabulary — the `name` column of
/// standard_cli_knobs(): the scenario knobs read by pretrain_config_from(),
/// init_runtime() and standard_scenario() (scale, pretrain_epochs, threads,
/// verbose), the shared CL epoch count (epochs),
/// the checkpoint/resume knobs, the telemetry knobs (metrics_out, trace),
/// and the replay knobs of apply_replay_overrides().  A binary that applies
/// all of them (budget_stream) validates against this list.
[[nodiscard]] std::vector<std::string_view> standard_cli_keys();

/// Rejects the CLI keys a binary does not apply: throws Error (naming the
/// offending key and listing the valid ones) when `cfg` holds an
/// explicitly-set key outside the knobs every standard binary reads — the
/// scenario knobs (scale, pretrain_epochs, threads, verbose), epochs and the
/// telemetry knobs (metrics_out, trace) — and
/// `extra`.  A binary that reads a checkpoint or replay knob passes it in
/// `extra`.  Call it right after Config::from_args, so that a typo like
/// `latentbits=4`, or `budget=1` given to a binary without a replay budget,
/// fails loudly instead of silently running the default configuration.
void validate_standard_keys(const Config& cfg,
                            std::initializer_list<std::string_view> extra = {});

/// The main() of every CLI binary: returns body(argc, argv), or, when it
/// throws (a malformed or unknown knob, a corrupt checkpoint), prints
/// "error: <what>" to stderr and returns 2 — an exit code distinct from
/// crashes and sanitizer aborts, which tools/run_resume_smoke.py keys off.
int run_cli(int argc, char** argv, int (*body)(int, char**));

}  // namespace r4ncl::core
