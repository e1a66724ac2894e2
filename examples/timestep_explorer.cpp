// Interactive version of the paper's Sec. III-A timestep exploration.
//
// Evaluates a pre-trained network at user-selected timestep settings, with
// fixed and adaptive thresholds, and prints the accuracy / modelled-latency
// trade-off — the analysis that leads to the paper's choice of T* = 40.
//
// Usage: ./timestep_explorer [timesteps=100,60,40,20] [scale=0.5]
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/cost_model.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

using namespace r4ncl;

namespace {

/// Parses timesteps= ("100,60,40,20"); every entry must be a positive integer.
std::vector<std::size_t> parse_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    std::uint64_t v = 0;
    R4NCL_CHECK(parse_unsigned_decimal(tok, v) && v > 0,
                "timesteps=" << csv << " must be a comma-separated list of positive integers");
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

int run_main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(cfg, {"timesteps"});
  const auto settings = parse_list(cfg.get_string("timesteps", "100,60,40,20"));
  const core::ScopedMetrics metrics(cfg);
  Config scaled = cfg;
  if (!cfg.get("scale")) scaled.set("scale", "0.5");
  core::PretrainedScenario scenario = core::standard_scenario(scaled);

  const metrics::LatencyModel latency_model;

  std::printf("\n%-10s %14s %16s %18s %14s\n", "timesteps", "old-task(fix)",
              "old-task(adapt)", "inference latency", "vs T=100");
  double reference = 0.0;
  for (std::size_t T : settings) {
    const data::Dataset test = data::time_rescale(
        scenario.tasks.pretrain_test, T, data::TimeRescaleMethod::kSubsample);

    snn::SpikeOpStats stats;
    const double acc_fixed =
        snn::evaluate(scenario.net, test, 0, snn::ThresholdPolicy::fixed(1.0f), 32, &stats);
    const double acc_adaptive = snn::evaluate(
        scenario.net, test, 0, snn::ThresholdPolicy::adaptive(static_cast<int>(T)));
    const double lat = latency_model.latency_ms(stats);
    if (reference == 0.0) reference = lat;
    std::printf("%-10zu %13.1f%% %15.1f%% %15.2f ms %13.2fx\n", T, 100.0 * acc_fixed,
                100.0 * acc_adaptive, lat, lat / reference);
  }

  std::printf("\nreading the table: pick the smallest T whose fixed-threshold accuracy\n"
              "is still acceptable (the paper picks T*=40, its Observation B), then\n"
              "recover the residual loss with Replay4NCL's parameter adjustments\n"
              "during continual-learning training (Sec. III-B).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
