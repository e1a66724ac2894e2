// Fig. 2: the motivational case study.
//
// (a) SpikingLR's training latency and energy, normalized to the baseline
//     network without NCL techniques, across LR insertion layers 0–3
//     (the paper reports ~2–8× overheads).
// (b) Aggressive timestep reduction (100 → 20) applied naively to SpikingLR
//     degrades old-task accuracy significantly (accuracy-vs-epoch series).
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(12);

  // ---- Part (a): SOTA overhead vs baseline per insertion layer ----------
  // The baseline at layer j fine-tunes the same learning layers on the new
  // task only (no replay, no codec): the overhead isolates what the NCL
  // technique itself costs, as in the paper's Fig. 2(a).
  ResultTable overhead({"lr_insertion_layer", "latency_vs_baseline", "energy_vs_baseline"});
  for (std::size_t layer = 0; layer <= 3; ++layer) {
    const core::ClRunResult base = bench::run_method(
        ctx, core::NclMethodConfig::naive_baseline(), layer, epochs, epochs);
    const core::ClRunResult sota =
        bench::run_method(ctx, core::NclMethodConfig::spiking_lr(), layer, epochs, epochs);
    overhead.add_row();
    overhead.push(static_cast<long long>(layer));
    overhead.push(bench::ratio(sota.total_latency_ms() / base.total_latency_ms()) + "x");
    overhead.push(bench::ratio(sota.total_energy_uj() / base.total_energy_uj()) + "x");
  }
  bench::emit(overhead, "fig02a_sota_overheads",
              "Fig 2(a): SpikingLR latency/energy overhead vs baseline");

  // ---- Part (b): naive timestep reduction hurts accuracy ----------------
  const std::size_t curve_epochs = ctx.epochs(20);
  const core::ClRunResult full = bench::run_method(
      ctx, core::NclMethodConfig::spiking_lr(), 1, curve_epochs, 1);
  const core::ClRunResult reduced = bench::run_method(
      ctx, core::NclMethodConfig::spiking_lr_reduced(20), 1, curve_epochs, 1);

  ResultTable curves({"epoch", "acc_old_T100_pct", "acc_old_T20_pct"});
  for (std::size_t e = 0; e < curve_epochs; ++e) {
    if (full.rows[e].acc_old < 0.0) continue;
    curves.add_row();
    curves.push(static_cast<long long>(e));
    curves.push(bench::pct(full.rows[e].acc_old));
    curves.push(bench::pct(reduced.rows[e].acc_old));
  }
  bench::emit(curves, "fig02b_timestep_degradation",
              "Fig 2(b): aggressive timestep reduction (100 -> 20) degrades accuracy");

  std::printf("\nSummary: T=100 old-task %s%% vs naive T=20 old-task %s%%\n",
              bench::pct(full.final_acc_old).c_str(),
              bench::pct(reduced.final_acc_old).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
