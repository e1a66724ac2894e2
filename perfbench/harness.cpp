#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

double percentile_of(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Full-precision JSON number (callers guarantee finiteness).
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::percentile(double q) const { return percentile_of(values_, q); }

double Samples::block_median(double q, std::size_t block) const {
  const std::size_t blocks = block == 0 ? 0 : values_.size() / block;
  if (blocks < 2) return percentile(q);
  std::vector<double> per_block;
  per_block.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = values_.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last =
        b + 1 == blocks ? values_.end() : first + static_cast<std::ptrdiff_t>(block);
    per_block.push_back(percentile_of(std::vector<double>(first, last), q));
  }
  return percentile_of(std::move(per_block), 50.0);
}

double SpanLog::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

SpanLog::Scope::Scope(SpanLog& log, std::string_view name) : log_(log) {
  if (!log_.enabled_) return;
  saved_parent_ = log_.current_;
  id_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back({std::string(name), log_.now(), 0.0, saved_parent_});
  log_.current_ = id_;
}

SpanLog::Scope::~Scope() {
  if (id_ < 0) return;
  log_.spans_[static_cast<std::size_t>(id_)].end = log_.now();
  log_.current_ = saved_parent_;
}

double SpanLog::total(std::string_view name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end - s.start;
  }
  return t;
}

void SpanLog::append_json(std::string& out, bool& first, std::size_t id_offset) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += first ? "\n  " : ",\n  ";
    first = false;
    const long long parent =
        s.parent < 0 ? -1 : static_cast<long long>(id_offset) + s.parent;
    out += "{\"id\": " + std::to_string(id_offset + i) + ", \"name\": \"" + s.name +
           "\", \"thread\": " + std::to_string(thread_) + ", \"start\": " +
           json_number(s.start) + ", \"end\": " + json_number(s.end) +
           ", \"parent\": " + std::to_string(parent) + "}";
  }
}

void write_spans(const std::string& path, const RunArgs& args,
                 const std::vector<const SpanLog*>& logs) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::string out = "{\"workload\": \"" + args.workload +
                    "\", \"seed\": " + std::to_string(args.seed) + ", \"spans\": [";
  bool first = true;
  std::size_t offset = 0;
  for (const SpanLog* log : logs) {
    log->append_json(out, first, offset);
    offset += log->size();
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file) throw std::runtime_error("cannot write span log " + path);
}

void Report::metric(std::string name, double value, std::string unit, std::size_t samples,
                    std::string basis) {
  if (!std::isfinite(value)) {
    check(false, name + " is finite");
    value = -1.0;
  }
  metrics_.push_back({std::move(name), value, std::move(unit), samples, std::move(basis)});
}

void Report::check(bool ok, const std::string& what) {
  checks_.push_back((ok ? "ok    " : "FAIL  ") + what);
  if (!ok) {
    correct_ = false;
    ++failed_;
  }
}

void Report::failed(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  checks_.push_back("FAILED OPS  " + std::to_string(n) + " x " + what);
}

void Report::print(const std::vector<std::string_view>& json_names) {
  std::string json_metrics;
  for (const std::string_view name : json_names) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics_.end()) {
      check(false, "metric " + std::string(name) + " was recorded");
      continue;
    }
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += "\"" + it->name + "\": {\"value\": " + json_number(it->value) +
                    ", \"unit\": \"" + it->unit + "\"}";
  }
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("metric  %-26s %16.8g %-6s n=%-8zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.basis.c_str());
  }
  for (const std::string& line : checks_) std::printf("check   %s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct_ ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), json_metrics.c_str());
  std::fflush(stdout);
}

void report_percentiles(Report& report, const std::string& name, const Samples& samples,
                        const std::string& unit, const std::string& what) {
  report.check(samples.count() >= kMinP99Samples,
               name + "_p99_" + unit + " rests on >= " + std::to_string(kMinP99Samples) +
                   " samples");
  report.metric(name + "_p50_" + unit, samples.block_median(50.0, kMinP99Samples), unit,
                samples.count(), "median over 1000-call blocks of the block p50, " + what);
  report.metric(name + "_p99_" + unit, samples.block_median(99.0, kMinP99Samples), unit,
                samples.count(), "median over 1000-call blocks of the block p99, " + what);
}

CodecTiming time_codec(const r4ncl::data::Dataset& latents,
                       const r4ncl::compress::CodecConfig& codec, std::size_t timesteps) {
  Samples encode;
  Samples decode;
  r4ncl::data::SpikeRaster out;
  std::vector<std::uint8_t> scratch;
  while (!latents.empty() && encode.count() < kMinP99Samples) {
    for (const r4ncl::data::Sample& s : latents) {
      r4ncl::Stopwatch watch;
      const r4ncl::compress::PackedRaster packed = r4ncl::compress::compress_packed(s.raster, codec);
      encode.add(watch.elapsed_seconds() * 1e6);
      watch.restart();
      r4ncl::compress::decompress_packed_into(packed, timesteps, codec, out, &scratch);
      decode.add(watch.elapsed_seconds() * 1e6);
    }
  }
  return {encode.median(), decode.median(), encode.count()};
}

void arm_registry() {
  r4ncl::obs::MetricsRegistry& reg = r4ncl::obs::metrics();
  reg.set_trace(true);
  reg.set_armed(true);
  reg.reset_values();
}

double obs_seconds(std::string_view histogram) {
  return r4ncl::obs::metrics().histogram(histogram, r4ncl::obs::kLatencyEdgesSeconds).sum();
}

double obs_count(std::string_view counter) {
  return static_cast<double>(r4ncl::obs::metrics().counter(counter).value());
}

double obs_shard_skew(std::size_t shards) {
  double max = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < shards; ++i) {
    const double adds = obs_count("replay_engine.shard" + std::to_string(i) + ".adds");
    max = std::max(max, adds);
    total += adds;
  }
  return total > 0.0 ? max / (total / static_cast<double>(shards)) : 0.0;
}

}  // namespace perfbench
