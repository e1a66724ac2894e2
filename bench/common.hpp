// Shared benchmark harness plumbing.
//
// Every figure bench: parses key=value CLI overrides (plus R4NCL_* env vars),
// pre-trains the standard scenario from its configuration, runs its
// continual-learning configurations, prints the paper-style rows, and
// mirrors them into <bench>.csv and <bench>.json in the working directory.
//
// Common knobs (CLI "key=value" or env R4NCL_<KEY>):
//   scale=1.0        dataset sample-count scale
//   epochs=<n>       override the bench's default CL epoch count
//   pretrain_epochs  pre-training epochs (default 8)
//   threads=<n>      worker threads, applied before pre-training (0 = default)
//   verbose=1        per-epoch pre-training progress
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "core/experiment.hpp"
#include "util/csv.hpp"

namespace r4ncl::bench {

/// Scenario + config shared by a bench binary.
struct BenchContext {
  Config cfg;
  core::PretrainedScenario scenario;
  /// Telemetry knobs (metrics_out=, trace=) as armed by make_context().
  core::MetricsOptions metrics;

  BenchContext(Config cfg_in, core::PretrainedScenario scenario_in,
               core::MetricsOptions metrics_in)
      : cfg(std::move(cfg_in)), scenario(std::move(scenario_in)),
        metrics(std::move(metrics_in)) {}
  BenchContext(const BenchContext&) = delete;
  BenchContext& operator=(const BenchContext&) = delete;
  BenchContext(BenchContext&& other) noexcept
      : cfg(std::move(other.cfg)), scenario(std::move(other.scenario)),
        metrics(std::move(other.metrics)) {
    // The moved-from context must not also write the snapshot at scope exit.
    other.metrics.out_path.clear();
  }
  BenchContext& operator=(BenchContext&&) = delete;
  /// End-of-bench hook: writes the metrics_out= registry snapshot, so every
  /// bench binary exports telemetry without per-bench wiring.
  ~BenchContext() { core::write_metrics_snapshot(metrics); }

  /// CL epoch count: bench default, overridable via epochs=N.
  [[nodiscard]] std::size_t epochs(std::size_t fallback) const {
    return static_cast<std::size_t>(
        cfg.get_int("epochs", static_cast<long long>(fallback)));
  }
};

/// Builds the context (core::standard_scenario: threads/logging init, then
/// pre-training).  CLI keys outside the knobs every binary reads
/// (core::validate_standard_keys) plus `extra_keys` are rejected with an
/// Error listing the valid ones, so knob typos, and replay or checkpoint
/// knobs that no bench of this harness applies, fail loudly instead of
/// silently running the defaults.
BenchContext make_context(int argc, char** argv,
                          std::initializer_list<std::string_view> extra_keys = {});

/// Prints the table and writes `<name>.csv`.
void emit(const ResultTable& table, const std::string& name, const std::string& title);

/// Percentage formatting helper (0.9043 → "90.43").
std::string pct(double fraction);

/// "x.xx" ratio formatting helper.
std::string ratio(double value);

/// Runs one continual-learning configuration on a fresh clone of the
/// scenario's pre-trained network.
core::ClRunResult run_method(const BenchContext& ctx, const core::NclMethodConfig& method,
                             std::size_t insertion_layer, std::size_t epochs,
                             std::size_t eval_every = 1);

}  // namespace r4ncl::bench
