// Fig. 8: the timestep-optimization case study (Sec. III-A).
//
// Memory-replay CL runs at T ∈ {100, 60, 40, 20} with *no* parameter
// adjustments (fixed threshold, SOTA learning rate), reporting
// (a) old/new-task accuracy profiles across epochs per setting, and
// (b) per-epoch processing time normalized to the T = 100 setting.
// Expected observations: A — T=20 degrades old-task accuracy significantly;
// B — T≥40 stays acceptable; C — latency falls with T.
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(16);
  const std::size_t layers[] = {1};  // the case study's LR insertion layer
  const std::size_t timesteps[] = {100, 60, 40, 20};

  std::vector<core::ClRunResult> results;
  for (std::size_t T : timesteps) {
    core::NclMethodConfig method = T == 100 ? core::NclMethodConfig::spiking_lr()
                                            : core::NclMethodConfig::spiking_lr_reduced(T);
    results.push_back(bench::run_method(ctx, method, layers[0], epochs, 1));
  }

  // (a) accuracy profiles.
  ResultTable acc({"epoch", "old_T100", "new_T100", "old_T60", "new_T60", "old_T40",
                   "new_T40", "old_T20", "new_T20"});
  for (std::size_t e = 0; e < epochs; ++e) {
    acc.add_row();
    acc.push(static_cast<long long>(e));
    for (const auto& res : results) {
      acc.push(bench::pct(res.rows[e].acc_old));
      acc.push(bench::pct(res.rows[e].acc_new));
    }
  }
  bench::emit(acc, "fig08a_timestep_accuracy",
              "Fig 8(a): accuracy profiles at T = 100/60/40/20 (no compensation)");

  // (b) processing time normalized to T = 100.
  const double t100 = results[0].total_latency_ms();
  ResultTable lat({"timesteps", "latency_norm_T100"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    lat.add_row();
    lat.push(static_cast<long long>(timesteps[i]));
    lat.push(format_double(results[i].total_latency_ms() / t100, 3));
  }
  bench::emit(lat, "fig08b_timestep_latency",
              "Fig 8(b): processing time vs timestep setting (normalized to T=100)");

  std::printf("\nObservation A/B: final old-task acc — T100 %s%%, T60 %s%%, T40 %s%%, T20 %s%%\n",
              bench::pct(results[0].final_acc_old).c_str(),
              bench::pct(results[1].final_acc_old).c_str(),
              bench::pct(results[2].final_acc_old).c_str(),
              bench::pct(results[3].final_acc_old).c_str());
  std::printf("Observation C: latency ratios 1.00 / %s / %s / %s\n",
              format_double(results[1].total_latency_ms() / t100, 2).c_str(),
              format_double(results[2].total_latency_ms() / t100, 2).c_str(),
              format_double(results[3].total_latency_ms() / t100, 2).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
