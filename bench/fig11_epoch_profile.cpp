// Fig. 11: epoch profiles at LR insertion layer 3.
//
// (a) old-task Top-1 accuracy vs epoch for SpikingLR and Replay4NCL;
// (b) cumulative processing time at epoch milestones 10/30/50, normalized to
//     SpikingLR at epoch 10; (c) the same for energy.
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(50);
  const std::size_t layer = 3;

  const core::ClRunResult sota =
      bench::run_method(ctx, core::bench_spiking_lr(), layer, epochs, 2);
  const core::ClRunResult r4ncl =
      bench::run_method(ctx, core::bench_replay4ncl(), layer, epochs, 2);

  // (a) old-task accuracy profile.
  ResultTable acc({"epoch", "sota_old", "r4ncl_old"});
  for (std::size_t e = 0; e < epochs; ++e) {
    if (sota.rows[e].acc_old < 0.0 || r4ncl.rows[e].acc_old < 0.0) continue;
    acc.add_row();
    acc.push(static_cast<long long>(e));
    acc.push(bench::pct(sota.rows[e].acc_old));
    acc.push(bench::pct(r4ncl.rows[e].acc_old));
  }
  bench::emit(acc, "fig11a_old_task_accuracy",
              "Fig 11(a): old-task accuracy vs epoch (LR layer 3) [%]");

  // (b)+(c) cumulative cost at milestones.
  auto cumulative = [](const core::ClRunResult& res, std::size_t upto, bool energy) {
    double total = energy ? res.prep_energy_uj : res.prep_latency_ms;
    for (std::size_t e = 0; e < upto && e < res.rows.size(); ++e) {
      total += energy ? res.rows[e].energy_uj : res.rows[e].latency_ms;
    }
    return total;
  };
  const double lat_ref = cumulative(sota, 10, false);
  const double en_ref = cumulative(sota, 10, true);
  ResultTable cost({"epoch_milestone", "sota_latency", "r4ncl_latency", "sota_energy",
                    "r4ncl_energy"});
  for (std::size_t milestone : {std::size_t{10}, std::size_t{30}, std::size_t{50}}) {
    const std::size_t upto = std::min(milestone, epochs);
    cost.add_row();
    cost.push(static_cast<long long>(upto));
    cost.push(format_double(cumulative(sota, upto, false) / lat_ref, 3));
    cost.push(format_double(cumulative(r4ncl, upto, false) / lat_ref, 3));
    cost.push(format_double(cumulative(sota, upto, true) / en_ref, 3));
    cost.push(format_double(cumulative(r4ncl, upto, true) / en_ref, 3));
  }
  bench::emit(cost, "fig11bc_cost",
              "Fig 11(b,c): cumulative latency/energy at epoch milestones "
              "(normalized to SpikingLR @ epoch 10)");

  const double saving =
      1.0 - cumulative(r4ncl, epochs, true) / cumulative(sota, epochs, true);
  std::printf("\nSummary (layer 3): final old-task %s%% (SOTA) vs %s%% (R4NCL); "
              "energy saving %s%%\n",
              bench::pct(sota.final_acc_old).c_str(), bench::pct(r4ncl.final_acc_old).c_str(),
              bench::pct(saving).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
