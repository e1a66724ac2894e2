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

#include "core/experiment.hpp"
#include "util/csv.hpp"

namespace r4ncl::bench {

/// Scenario + config shared by a bench binary.  make_context() builds it in
/// place (C++17 guaranteed elision; `metrics` neither copies nor moves),
/// members in declaration order, so the registry is armed before
/// pre-training runs; `metrics` writes the metrics_out= snapshot when the
/// context goes out of scope.
struct BenchContext {
  Config cfg;
  core::ScopedMetrics metrics;
  core::PretrainedScenario scenario;

  /// CL epoch count: bench default, overridable via epochs=N.
  [[nodiscard]] std::size_t epochs(std::size_t fallback) const {
    return static_cast<std::size_t>(
        cfg.get_int("epochs", static_cast<long long>(fallback)));
  }
};

/// Builds the context (core::ScopedMetrics, then core::standard_scenario:
/// threads/logging init, then pre-training).  CLI keys outside the knobs
/// every binary reads (core::validate_standard_keys) plus `extra_keys` are
/// rejected with an Error listing the valid ones, so knob typos, and replay
/// or checkpoint knobs that no bench of this harness applies, fail loudly
/// instead of silently running the defaults.
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
