// Fig. 12: latent-memory sizes across LR insertion layers 1–3.
//
// SpikingLR stores codec-compressed (ratio 2) activations recorded at
// T = 100; Replay4NCL stores raw activations recorded at T* = 40.  The paper
// reports 20–21.88% savings, with later layers needing less memory because
// they have fewer neurons.  Values normalized to SpikingLR at layer 1.
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);

  // Only the preparation phase matters for memory; one epoch keeps it quick.
  ResultTable table({"lr_layer", "sota_bytes", "r4ncl_bytes", "sota_norm", "r4ncl_norm",
                     "saving_pct"});
  double norm = 0.0;
  double min_saving = 1.0, max_saving = 0.0;
  for (std::size_t layer = 1; layer <= 3; ++layer) {
    const core::ClRunResult sota =
        bench::run_method(ctx, core::bench_spiking_lr(), layer, 1, 1);
    const core::ClRunResult r4ncl =
        bench::run_method(ctx, core::bench_replay4ncl(), layer, 1, 1);
    if (layer == 1) norm = static_cast<double>(sota.latent_memory_bytes);
    const double saving = 1.0 - static_cast<double>(r4ncl.latent_memory_bytes) /
                                    static_cast<double>(sota.latent_memory_bytes);
    min_saving = std::min(min_saving, saving);
    max_saving = std::max(max_saving, saving);
    table.add_row();
    table.push(static_cast<long long>(layer));
    table.push(static_cast<long long>(sota.latent_memory_bytes));
    table.push(static_cast<long long>(r4ncl.latent_memory_bytes));
    table.push(format_double(static_cast<double>(sota.latent_memory_bytes) / norm, 3));
    table.push(format_double(static_cast<double>(r4ncl.latent_memory_bytes) / norm, 3));
    table.push(bench::pct(saving));
  }
  bench::emit(table, "fig12_latent_memory",
              "Fig 12: latent memory per LR insertion layer (normalized to SOTA @ layer 1)");

  std::printf("\nSummary: Replay4NCL saves %s%%-%s%% latent memory vs SpikingLR\n",
              bench::pct(min_saving).c_str(), bench::pct(max_saving).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
