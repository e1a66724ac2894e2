// The r4ncl benchmark binary; perfbench/run.py builds and drives it:
//
//   r4ncl_perfbench --workload <ncl_single|ncl_stream|fleet_replay>
//                   --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints a human-readable report (every metric with unit, sample count and
// basis; every correctness check), then one result JSON line holding every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Traced runs also write their span log to <out-dir>.  Exits 1 without a
// result line when the run cannot complete.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

// The metric sets of BENCHMARK.json; run.py checks every result line
// against that file.
const std::vector<std::string_view> kEndToEnd = {"setup_s", "learn_s", "latent_bytes",
                                                  "energy_uj", "peak_rss_mb"};

const std::vector<std::string_view> kPerLayer = {
    "data.synth_s",        "snn.pretrain_s",         "snn.prefix_s",
    "snn.train_s",         "snn.stall_s",            "snn.assemble_s",
    "snn.synops",          "snn.backward_synops",    "snn.spikes",
    "metrics.eval_s",      "metrics.evals",          "compress.decompress_bits",
    "compress.encode_us",  "compress.decode_us",     "core.prep_s",
    "core.adds",           "core.evictions",         "core.admit_ratio",
    "core.add_self_us",    "core.lock_wait_s",       "core.shard_skew",
    "core.short_draws",    "core.ops_per_s",         "core.add_p50_us",
    "core.add_p99_us",     "core.draw_p50_us",       "core.draw_p99_us",
    "obs.trace_overhead_pct", "obs.coverage_pct"};

bool all_digits(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

perfbench::RunArgs parse_args(int argc, char** argv) {
  perfbench::RunArgs args;
  bool seen_workload = false;
  bool seen_seed = false;
  bool seen_seconds = false;
  bool seen_trace = false;
  bool seen_out = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      seen_workload = true;
    } else if (key == "--seed") {
      if (!all_digits(value)) throw std::invalid_argument("--seed must be a non-negative integer");
      args.seed = std::stoull(value);
      seen_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 60.0)) {
        throw std::invalid_argument("--seconds must be in (0, 60]");
      }
      seen_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace must be 0 or 1");
      args.trace = value == "1";
      seen_trace = true;
    } else if (key == "--out-dir") {
      args.out_dir = value;
      seen_out = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!(seen_workload && seen_seed && seen_seconds && seen_trace && seen_out)) {
    throw std::invalid_argument(
        "usage: r4ncl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "--out-dir <dir>");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::RunArgs args = parse_args(argc, argv);
    args.threads = perfbench::bench_threads();
    r4ncl::set_num_threads(args.threads);
    perfbench::Report report;
    report.note("workload " + args.workload + "  seed " + std::to_string(args.seed) +
                "  seconds " + std::to_string(args.seconds) + "  trace " +
                (args.trace ? "1" : "0") + "  threads " + std::to_string(args.threads) +
                "  nproc " + std::to_string(std::thread::hardware_concurrency()));
    if (args.workload == "ncl_single") {
      perfbench::run_ncl_single(args, report);
    } else if (args.workload == "ncl_stream") {
      perfbench::run_ncl_stream(args, report);
    } else if (args.workload == "fleet_replay") {
      perfbench::run_fleet_replay(args, report);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload +
                                  " (expected ncl_single|ncl_stream|fleet_replay)");
    }
    report.print(args.trace ? kPerLayer : kEndToEnd);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "r4ncl_perfbench: %s\n", e.what());
    return 1;
  }
}
