// Fig. 10: SpikingLR vs Replay4NCL across LR insertion layers 0–3.
//
// (a) Top-1 accuracy for old and new tasks per layer and method;
// (b) processing time normalized to SpikingLR at insertion layer 0;
// (c) energy consumption normalized likewise.
// Paper shapes: comparable accuracy (R4NCL reaches 100% new-task at layers
// 0–2), up to 2.34× speedup and up to 56.7% energy saving for Replay4NCL.
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(25);

  struct Entry {
    core::ClRunResult sota;
    core::ClRunResult r4ncl;
  };
  std::vector<Entry> entries;
  for (std::size_t layer = 0; layer <= 3; ++layer) {
    entries.push_back({
        bench::run_method(ctx, core::bench_spiking_lr(), layer, epochs, epochs),
        bench::run_method(ctx, core::bench_replay4ncl(), layer, epochs, epochs),
    });
  }

  // (a) accuracy.
  ResultTable acc({"lr_layer", "sota_new", "r4ncl_new", "sota_old", "r4ncl_old"});
  for (std::size_t layer = 0; layer <= 3; ++layer) {
    const Entry& e = entries[layer];
    acc.add_row();
    acc.push(static_cast<long long>(layer));
    acc.push(bench::pct(e.sota.final_acc_new));
    acc.push(bench::pct(e.r4ncl.final_acc_new));
    acc.push(bench::pct(e.sota.final_acc_old));
    acc.push(bench::pct(e.r4ncl.final_acc_old));
  }
  bench::emit(acc, "fig10a_accuracy", "Fig 10(a): Top-1 accuracy per LR insertion layer [%]");

  // (b)+(c) normalized latency and energy.
  const double lat0 = entries[0].sota.total_latency_ms();
  const double en0 = entries[0].sota.total_energy_uj();
  ResultTable cost({"lr_layer", "sota_latency", "r4ncl_latency", "speedup", "sota_energy",
                    "r4ncl_energy", "energy_saving_pct"});
  double best_speedup = 0.0, best_saving = 0.0;
  for (std::size_t layer = 0; layer <= 3; ++layer) {
    const Entry& e = entries[layer];
    const double speedup = e.sota.total_latency_ms() / e.r4ncl.total_latency_ms();
    const double saving = 1.0 - e.r4ncl.total_energy_uj() / e.sota.total_energy_uj();
    best_speedup = std::max(best_speedup, speedup);
    best_saving = std::max(best_saving, saving);
    cost.add_row();
    cost.push(static_cast<long long>(layer));
    cost.push(format_double(e.sota.total_latency_ms() / lat0, 3));
    cost.push(format_double(e.r4ncl.total_latency_ms() / lat0, 3));
    cost.push(bench::ratio(speedup) + "x");
    cost.push(format_double(e.sota.total_energy_uj() / en0, 3));
    cost.push(format_double(e.r4ncl.total_energy_uj() / en0, 3));
    cost.push(bench::pct(saving));
  }
  bench::emit(cost, "fig10bc_cost",
              "Fig 10(b,c): latency & energy normalized to SpikingLR @ layer 0");

  std::printf("\nSummary: up to %sx speedup and %s%% energy saving across insertion layers\n",
              bench::ratio(best_speedup).c_str(), bench::pct(best_saving).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
