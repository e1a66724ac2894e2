// Runtime observability: one telemetry surface for the whole process.
//
// Every layer that used to keep private stats (batch-assembly clocks,
// per-buffer eviction counters, bench-local stopwatches) publishes into a
// MetricsRegistry instead: named monotonic Counters, last-write-wins Gauges,
// and fixed-bucket Histograms, exported as one deterministic JSON snapshot
// (`write_snapshot`, stable key order).  The fleet question "where is the
// time and memory going?" becomes a single registry read.
//
// Contracts, pinned by tests/test_obs.cpp:
//  - Observation-only: metrics never feed back into any computation, so a
//    metrics-enabled run is bit-identical to a disabled one (checked across
//    policy × shards × engine read: stream() or sample_into()).
//  - Counter values are deterministic across identical runs.  Timer-fed
//    histograms/gauges carry wall-clock and are exempt — their *counts* are
//    still deterministic, only sums vary.
//  - Disarmed cost is one relaxed atomic load per event site (the registry
//    starts disarmed, so instrumented hot paths stay within the PR 8 bench
//    envelope); armed counters/gauges are single relaxed atomic RMWs.
//
// Threading: registration (name → handle) takes the registry's single
// r4ncl::Mutex; handles are stable for the registry's lifetime and their
// value updates are lock-free atomics, so concurrent increments from fleet
// threads never contend on the registry lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/stopwatch.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace r4ncl::obs {

class MetricsRegistry;

/// Passkey: metric handles are constructible only by MetricsRegistry (their
/// constructors run inside std::map's allocator, where a private constructor
/// plus friendship cannot reach), so the key type itself is the gate.
class RegistryKey {
  friend class MetricsRegistry;
  RegistryKey() = default;
};

/// Monotonic event counter.  add() is a relaxed atomic RMW when the owning
/// registry is armed and a no-op otherwise.
class Counter {
 public:
  Counter(RegistryKey, const std::atomic<bool>* armed) noexcept : armed_(armed) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    if (!armed_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  const std::atomic<bool>* armed_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (occupancy bytes, configured
/// capacity).  Writers race by design; the snapshot reports whichever write
/// landed last.
class Gauge {
 public:
  Gauge(RegistryKey, const std::atomic<bool>* armed) noexcept : armed_(armed) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    if (!armed_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

  const std::atomic<bool>* armed_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `edges` are strictly increasing upper bounds, and
/// bucket i counts values v with v <= edges[i] (first matching edge); one
/// implicit overflow bucket catches the rest.  Bucket counts, the value sum
/// and the observation count are all relaxed atomics, so record() never
/// takes a lock.
class Histogram {
 public:
  Histogram(RegistryKey, const std::atomic<bool>* armed, std::span<const double> edges)
      : armed_(armed), edges_(edges.begin(), edges.end()), counts_(edges.size() + 1) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double v) noexcept {
    if (!armed_->load(std::memory_order_relaxed)) return;
    counts_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // CAS loop instead of atomic<double>::fetch_add keeps the module off the
    // optional C++20 atomic-float library feature.
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
  }

  /// Index of the bucket `v` lands in (edges.size() = the overflow bucket).
  /// Exposed so tests can pin the edge semantics exactly.
  [[nodiscard]] std::size_t bucket_of(double v) const noexcept {
    std::size_t lo = 0;
    std::size_t hi = edges_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (v <= edges_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  [[nodiscard]] std::span<const double> edges() const noexcept { return edges_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void reset() noexcept {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
  }

  const std::atomic<bool>* armed_;
  std::vector<double> edges_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // edges_.size() + 1 buckets
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

/// Default edges for latency histograms: 1 µs .. 10 s in decades, seconds.
inline constexpr double kLatencyEdgesSeconds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                                  1e-2, 1e-1, 1.0,  10.0};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Arms (or disarms) value collection.  Registration works either way;
  /// while disarmed every add()/set()/record() is a no-op, which is what
  /// makes enabled vs disabled runs bit-identical *and* cheap.
  void set_armed(bool on) noexcept { armed_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Gates TraceSpan (and other explicitly span-shaped) timing: with trace
  /// off, spans skip their clock reads entirely while plain counters/gauges
  /// keep collecting.  Defaults on; meaningful only while armed.
  void set_trace(bool on) noexcept { trace_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool trace_armed() const noexcept {
    return armed() && trace_.load(std::memory_order_relaxed);
  }

  /// Handle registration: returns the named metric, creating it on first
  /// use.  Handles are stable references for the registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name) R4NCL_EXCLUDES(mu_);
  [[nodiscard]] Gauge& gauge(std::string_view name) R4NCL_EXCLUDES(mu_);
  /// First registration fixes the bucket edges (strictly increasing,
  /// non-empty); a later lookup with different edges throws Error — two
  /// subsystems silently sharing a name with different buckets would corrupt
  /// both views.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::span<const double> edges) R4NCL_EXCLUDES(mu_);

  /// Zeroes every registered value, keeping the registrations (and the
  /// handles other subsystems already hold) alive.  Lets tests compare two
  /// identical runs against one process-wide registry.
  void reset_values() R4NCL_EXCLUDES(mu_);

  /// Deterministic JSON snapshot: one object with "schema", then "counters",
  /// "gauges", "histograms" sub-objects, each sorted by metric name.  See
  /// tools/check_bench.py::check_metrics_snapshot for the gated schema.
  [[nodiscard]] std::string snapshot_json() const R4NCL_EXCLUDES(mu_);

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> trace_{true};
  mutable Mutex mu_;
  // std::map keeps node addresses stable across inserts (handle lifetime)
  // and iterates in sorted key order (deterministic snapshot).
  std::map<std::string, Counter, std::less<>> counters_ R4NCL_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ R4NCL_GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> histograms_ R4NCL_GUARDED_BY(mu_);
};

/// The process-wide default registry every instrumented subsystem publishes
/// into.  Starts disarmed; `metrics_out=` / `trace=` (core::init_metrics) or
/// a direct set_armed() call turn collection on.
[[nodiscard]] MetricsRegistry& metrics();

/// Writes `registry.snapshot_json()` (plus a trailing newline) to `path`,
/// throwing Error on I/O failure.
void write_snapshot(const MetricsRegistry& registry, const std::string& path);

/// RAII scoped timer: records the enclosing scope's wall time into a
/// latency histogram at destruction.  The clock is read only when tracing
/// was armed at construction, so disarmed spans cost two relaxed loads.
class TraceSpan {
 public:
  /// Looks `name` up in `reg` (default latency edges) when tracing is armed.
  TraceSpan(MetricsRegistry& reg, std::string_view name)
      : hist_(reg.trace_armed() ? &reg.histogram(name, kLatencyEdgesSeconds) : nullptr) {}

  /// Pre-registered-handle form for call sites that keep their histogram.
  TraceSpan(MetricsRegistry& reg, Histogram& hist) noexcept
      : hist_(reg.trace_armed() ? &hist : nullptr) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (hist_ != nullptr) hist_->record(watch_.elapsed_seconds());
  }

 private:
  Histogram* hist_;
  Stopwatch watch_;
};

}  // namespace r4ncl::obs
