// Headline results table (paper abstract / Sec. V):
//   old-task Top-1 90.43% (Replay4NCL) vs 86.22% (SpikingLR),
//   4.88× latency speedup, 20% latent-memory saving, 36.43% energy saving.
// Reproduced at the paper's headline configuration (LR insertion layer 3)
// on the simulated substrate; absolute accuracies differ (synthetic data),
// the comparison shape is the reproduction target.
#include "common.hpp"
#include "util/stopwatch.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(40);
  const std::size_t layer = 3;

  // The wall-clock row times each whole run here; the results carry only
  // modelled costs.
  Stopwatch watch;
  const core::ClRunResult sota =
      bench::run_method(ctx, core::bench_spiking_lr(), layer, epochs, 5);
  const double sota_seconds = watch.elapsed_seconds();
  watch.restart();
  const core::ClRunResult r4ncl =
      bench::run_method(ctx, core::bench_replay4ncl(), layer, epochs, 5);
  const double r4ncl_seconds = watch.elapsed_seconds();

  const double speedup = sota.total_latency_ms() / r4ncl.total_latency_ms();
  const double wall_speedup = sota_seconds / r4ncl_seconds;
  const double energy_saving = 1.0 - r4ncl.total_energy_uj() / sota.total_energy_uj();
  const double memory_saving = 1.0 - static_cast<double>(r4ncl.latent_memory_bytes) /
                                         static_cast<double>(sota.latent_memory_bytes);

  ResultTable table({"metric", "SpikingLR", "Replay4NCL", "paper_reports"});
  table.row({"old-task Top-1 [%]", bench::pct(sota.final_acc_old),
             bench::pct(r4ncl.final_acc_old), "86.22 vs 90.43"});
  table.row({"new-task Top-1 [%]", bench::pct(sota.final_acc_new),
             bench::pct(r4ncl.final_acc_new), "comparable"});
  table.row({"training latency [ms, modelled]", format_double(sota.total_latency_ms(), 1),
             format_double(r4ncl.total_latency_ms(), 1),
             "4.88x speedup"});
  table.row({"latency speedup", "1.00x", bench::ratio(speedup) + "x", "4.88x"});
  table.row({"wall-clock speedup", "1.00x", bench::ratio(wall_speedup) + "x", "(GPU pipeline)"});
  table.row({"latent memory [B]", std::to_string(sota.latent_memory_bytes),
             std::to_string(r4ncl.latent_memory_bytes), "20% saving"});
  table.row({"latent memory saving [%]", "-", bench::pct(memory_saving), "20.00"});
  table.row({"energy [uJ, modelled]", format_double(sota.total_energy_uj(), 1),
             format_double(r4ncl.total_energy_uj(), 1), "36.43% saving"});
  table.row({"energy saving [%]", "-", bench::pct(energy_saving), "36.43"});
  bench::emit(table, "table1_headline", "Headline comparison (LR insertion layer 3)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
