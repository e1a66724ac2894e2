// Shared plumbing of the r4ncl benchmark: timing samples and percentiles,
// the in-memory span log of traced runs, the run report whose last output
// line is the result JSON, and the codec and registry probes every workload
// uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compress/spike_codec.hpp"
#include "data/spike_data.hpp"

namespace perfbench {

/// Arguments of one benchmark run (see main.cpp for the command line).
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  int threads = 1;
};

/// Worker threads every workload runs with: fixed at 4, clipped to the host.
[[nodiscard]] int bench_threads();

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// SplitMix64 finalizer over (seed, stream): one decorrelated sub-seed per
/// input stream (split, run, pool, schedule) of a run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Observations of one quantity (latencies, repetition times, counts).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double sum() const;
  /// Linearly interpolated percentile, q in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  /// Median over consecutive blocks of `block` samples (the last partial
  /// block joins its predecessor) of each block's percentile q: a burst of
  /// interference moves the blocks it hits, not the result.  Plain
  /// percentile() below two blocks.
  [[nodiscard]] double block_median(double q, std::size_t block) const;

 private:
  std::vector<double> values_;
};

/// Fewest samples a p99 may rest on: at least ten observations beyond it.
/// Latency percentiles are block medians over blocks of this many calls.
inline constexpr std::size_t kMinP99Samples = 1000;

/// Set-up repeats at least kSetupReps times and for at least kSetupSeconds
/// on every workload; setup_s is the median repetition.  The time floor
/// gives a set-up of a few milliseconds (the fleet pre-fill) hundreds of
/// repetitions, so no single slow repetition sets its median.
inline constexpr std::size_t kSetupReps = 3;
inline constexpr double kSetupSeconds = 1.0;

/// Bench spans of a traced run: name, start, end (seconds since the shared
/// origin) and parent span, kept in memory and written as JSON at exit.  One
/// log per thread, so recording never locks; a disabled log records nothing
/// and reads no clock, which keeps untraced phases free of span overhead.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog(bool enabled, Clock::time_point origin, int thread = 0)
      : enabled_(enabled), origin_(origin), thread_(thread) {}

  /// Toggles recording; only while no span of this log is open.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// RAII span: opens on construction under the innermost open span.
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_ = -1;
    int saved_parent_ = -1;
  };

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Sum of durations of every span called `name`.
  [[nodiscard]] double total(std::string_view name) const;

  /// Appends this log's spans as comma-separated JSON objects whose ids (and
  /// parent ids) start at `id_offset`.
  void append_json(std::string& out, bool& first, std::size_t id_offset) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  [[nodiscard]] double now() const;

  bool enabled_;
  Clock::time_point origin_;
  int thread_;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// Writes every log's spans to `path` as {"workload", "seed", "spans": [...]}.
void write_spans(const std::string& path, const RunArgs& args,
                 const std::vector<const SpanLog*>& logs);

/// Result of one run: named metrics with units and sample counts, the
/// correctness checks, and the attempted/failed operation counts.
class Report {
 public:
  /// Records a metric; `basis` says what the value summarises ("median of 24
  /// CL phases").  A non-finite value fails a check and is reported as -1.
  void metric(std::string name, double value, std::string unit, std::size_t samples,
              std::string basis);
  /// Records a correctness check; a failed check counts as a failed operation.
  void check(bool ok, const std::string& what);
  void attempted(std::uint64_t n) noexcept { attempted_ += n; }
  /// Counts `n` failed operations (exceptions, short draws) under `what`.
  void failed(std::uint64_t n, const std::string& what);
  /// Free-form line for the human-readable part of the output.
  void note(std::string line) { notes_.push_back(std::move(line)); }

  /// Prints notes, metrics and checks, then the result JSON as the last
  /// line with exactly the metrics named in `json_names`; a name that was
  /// never recorded fails the run's correctness.
  void print(const std::vector<std::string_view>& json_names);

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string basis;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> checks_;
  std::vector<std::string> notes_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Records <name>_p50_<unit> and <name>_p99_<unit> from per-call latencies
/// as block medians over kMinP99Samples-call blocks; a check fails when
/// fewer samples than that back the p99.
void report_percentiles(Report& report, const std::string& name, const Samples& samples,
                        const std::string& unit, const std::string& what);

/// Median per-call latencies (µs) of compress_packed and
/// decompress_packed_into over `latents`, cycled to kMinP99Samples calls.
struct CodecTiming {
  double encode_us = 0.0;
  double decode_us = 0.0;
  std::size_t calls = 0;
};
[[nodiscard]] CodecTiming time_codec(const r4ncl::data::Dataset& latents,
                                     const r4ncl::compress::CodecConfig& codec,
                                     std::size_t timesteps);

/// Arms the process-wide obs registry with tracing on and zeroes its values,
/// so later sums cover only what runs after this call.
void arm_registry();
/// Sum of an obs latency histogram, in seconds.
[[nodiscard]] double obs_seconds(std::string_view histogram);
/// Value of an obs counter.
[[nodiscard]] double obs_count(std::string_view counter);
/// max / mean of the replay_engine.shard<i>.adds counters (1 = balanced).
[[nodiscard]] double obs_shard_skew(std::size_t shards);

}  // namespace perfbench
