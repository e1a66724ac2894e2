// Ablation: latent-storage codec strategy and ratio (Sec. III-A / Fig. 7).
//
// Runs SpikingLR-style CL (T = 100, LR layer 2) with each codec strategy at
// ratios 1–4, reporting latent memory, spike retention of the stored data,
// and final accuracies — the memory/accuracy trade-off behind the paper's
// choice of the subsampling codec at ratio 2.
#include "common.hpp"
#include "compress/spike_codec.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  bench::BenchContext ctx = bench::make_context(argc, argv);
  const std::size_t epochs = ctx.epochs(15);
  const std::size_t layer = 2;

  struct StrategyEntry {
    compress::CodecStrategy strategy;
    const char* name;
  };
  const StrategyEntry strategies[] = {
      {compress::CodecStrategy::kSubsample, "subsample"},
      {compress::CodecStrategy::kGroupOr, "group-or"},
      {compress::CodecStrategy::kGroupMajority, "majority"},
  };

  ResultTable table({"strategy", "ratio", "latent_bytes", "retention_pct", "acc_old",
                     "acc_new"});
  auto run_one = [&](const char* name, const compress::CodecConfig& codec) {
    core::NclMethodConfig method = core::bench_spiking_lr();
    method.storage_codec = codec;
    const core::ClRunResult res = bench::run_method(ctx, method, layer, epochs, epochs);

    // Spike retention of the codec on replay inputs (information proxy).
    double retention = 0.0;
    for (const auto& sample : ctx.scenario.tasks.replay_subset) {
      retention += compress::spike_retention(sample.raster, method.storage_codec);
    }
    retention /= static_cast<double>(ctx.scenario.tasks.replay_subset.size());

    table.add_row();
    table.push(name);
    table.push(static_cast<long long>(codec.ratio));
    table.push(static_cast<long long>(res.latent_memory_bytes));
    table.push(bench::pct(retention));
    table.push(bench::pct(res.final_acc_old));
    table.push(bench::pct(res.final_acc_new));
  };

  run_one("raw", {.ratio = 1});  // strategy-independent reference
  for (const auto& s : strategies) {
    for (std::uint32_t ratio : {2u, 4u}) {
      run_one(s.name, {.ratio = ratio, .strategy = s.strategy});
    }
  }
  bench::emit(table, "abl_codec",
              "Ablation: latent codec strategy x ratio (SpikingLR config, LR layer 2)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
