// Fig. 13: long-training comparison (paper: 150 epochs, LR layer 3).
//
// New-task accuracy profile of SpikingLR vs Replay4NCL over a long CL run:
// the paper's point is that Replay4NCL's lower learning rate yields smoother,
// better-converging curves.  Default 100 epochs here (override epochs=150
// for the paper's exact span).
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(100);
  const std::size_t layer = 3;

  const core::ClRunResult sota =
      bench::run_method(ctx, core::bench_spiking_lr(), layer, epochs, 4);
  const core::ClRunResult r4ncl =
      bench::run_method(ctx, core::bench_replay4ncl(), layer, epochs, 4);

  ResultTable table({"epoch", "sota_new", "r4ncl_new", "sota_old", "r4ncl_old"});
  for (std::size_t e = 0; e < epochs; ++e) {
    if (sota.rows[e].acc_new < 0.0 || r4ncl.rows[e].acc_new < 0.0) continue;
    table.add_row();
    table.push(static_cast<long long>(e));
    table.push(bench::pct(sota.rows[e].acc_new));
    table.push(bench::pct(r4ncl.rows[e].acc_new));
    table.push(bench::pct(sota.rows[e].acc_old));
    table.push(bench::pct(r4ncl.rows[e].acc_old));
  }
  bench::emit(table, "fig13_long_training",
              "Fig 13: new-task accuracy over a long training period (LR layer 3) [%]");

  // Curve smoothness: mean absolute epoch-to-epoch change of new-task
  // accuracy (the paper argues R4NCL's lower η gives a smoother curve).
  auto roughness = [](const core::ClRunResult& res) {
    double total = 0.0;
    std::size_t count = 0;
    double prev = -1.0;
    for (const auto& row : res.rows) {
      if (row.acc_new < 0.0) continue;
      if (prev >= 0.0) {
        total += std::abs(row.acc_new - prev);
        ++count;
      }
      prev = row.acc_new;
    }
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  std::printf("\nSummary: final new-task %s%% (SOTA) vs %s%% (R4NCL); curve roughness "
              "%.4f vs %.4f (lower = smoother convergence)\n",
              bench::pct(sota.final_acc_new).c_str(), bench::pct(r4ncl.final_acc_new).c_str(),
              roughness(sota), roughness(r4ncl));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
