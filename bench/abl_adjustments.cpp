// Ablation: which of Replay4NCL's ingredients does what (Sec. III-B/C).
//
// At the headline configuration (T* = 40, LR layer 3), toggles:
//   full           — adaptive Vthr + reduced η (the method)
//   no-adaptive    — fixed Vthr = 1, reduced η
//   no-lr-reduction— adaptive Vthr, η_cl = η_pre
//   neither        — plain timestep reduction (the Fig. 8 failure case)
//   paper-eta      — adaptive Vthr with the paper-exact η_pre/100 divisor
//                    (illustrates the step-count rescaling documented in
//                    core/experiment.hpp)
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(25);
  const std::size_t layer = 3;

  struct Variant {
    std::string name;
    core::NclMethodConfig method;
  };
  std::vector<Variant> variants;
  {
    core::NclMethodConfig m = core::bench_replay4ncl();
    variants.push_back({"full (Replay4NCL)", m});
  }
  {
    core::NclMethodConfig m = core::bench_replay4ncl();
    m.adaptive_threshold = false;
    variants.push_back({"no adaptive Vthr", m});
  }
  {
    core::NclMethodConfig m = core::bench_replay4ncl();
    m.lr_cl = core::kEtaPre;
    variants.push_back({"no lr reduction", m});
  }
  {
    core::NclMethodConfig m = core::bench_replay4ncl();
    m.adaptive_threshold = false;
    m.lr_cl = core::kEtaPre;
    variants.push_back({"neither (naive T*=40)", m});
  }
  {
    core::NclMethodConfig m = core::NclMethodConfig::replay4ncl();  // η_pre/100
    variants.push_back({"paper-eta (eta_pre/100)", m});
  }

  ResultTable table({"variant", "acc_old", "acc_new", "latency_ms", "energy_uJ"});
  for (const auto& v : variants) {
    const core::ClRunResult res = bench::run_method(ctx, v.method, layer, epochs, epochs);
    table.add_row();
    table.push(v.name);
    table.push(bench::pct(res.final_acc_old));
    table.push(bench::pct(res.final_acc_new));
    table.push(format_double(res.total_latency_ms(), 1));
    table.push(format_double(res.total_energy_uj(), 1));
  }
  bench::emit(table, "abl_adjustments",
              "Ablation: Replay4NCL parameter adjustments (LR layer 3, T*=40)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
