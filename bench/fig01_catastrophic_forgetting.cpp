// Fig. 1(a): catastrophic forgetting of the baseline network.
//
// The pre-trained SNN (19 classes) is fine-tuned on the 20th class with no
// NCL technique.  The paper's panel shows new-task accuracy rising to ~100%
// while old-task accuracy collapses within a few epochs.  Series printed:
// epoch, old-task Top-1, new-task Top-1.
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(30);

  core::NclMethodConfig baseline = core::NclMethodConfig::naive_baseline();
  const core::ClRunResult res = bench::run_method(ctx, baseline, 0, epochs, 1);

  ResultTable table({"epoch", "acc_old_pct", "acc_new_pct"});
  // Epoch 0 row = state right after pre-training (the paper's curves start
  // at the pre-trained level).
  table.row({"pretrained", bench::pct(ctx.scenario.pretrain_accuracy), bench::pct(0.0)});
  for (const auto& row : res.rows) {
    if (row.acc_old < 0.0) continue;
    table.add_row();
    table.push(static_cast<long long>(row.epoch + 1));
    table.push(bench::pct(row.acc_old));
    table.push(bench::pct(row.acc_new));
  }
  bench::emit(table, "fig01_catastrophic_forgetting",
              "Fig 1(a): baseline (no NCL) — old knowledge collapses");

  std::printf("\nSummary: old-task accuracy %s%% -> %s%% while learning the new task to %s%%\n",
              bench::pct(ctx.scenario.pretrain_accuracy).c_str(),
              bench::pct(res.final_acc_old).c_str(), bench::pct(res.final_acc_new).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
