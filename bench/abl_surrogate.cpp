// Ablation: surrogate-gradient family (Sec. II-B design choice).
//
// The paper trains with the fast-sigmoid surrogate (Fig. 5).  This bench
// re-runs pre-training + Replay4NCL with atan and boxcar surrogates to show
// the choice matters for training quality but not for the efficiency story
// (latency/energy/memory are surrogate-independent).
//
// Note: each surrogate needs its own pre-training run, so this bench keeps
// the scenario at reduced scale by default (scale=0.5) for runtime.
#include "common.hpp"

using namespace r4ncl;

namespace {

int run_main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(cfg);
  const core::ScopedMetrics metrics(cfg);
  if (!cfg.get("scale")) cfg.set("scale", "0.5");
  core::init_runtime(cfg);
  const std::size_t epochs = static_cast<std::size_t>(cfg.get_int("epochs", 20));

  struct Family {
    snn::SurrogateKind kind;
    float scale;
    const char* name;
  };
  const Family families[] = {
      {snn::SurrogateKind::kFastSigmoid, 10.0f, "fast-sigmoid (paper)"},
      {snn::SurrogateKind::kAtan, 10.0f, "atan"},
      {snn::SurrogateKind::kBoxcar, 10.0f, "boxcar"},
  };

  ResultTable table({"surrogate", "pretrain_acc", "r4ncl_old", "r4ncl_new"});
  for (const Family& f : families) {
    core::PretrainConfig pc = core::pretrain_config_from(cfg);
    pc.network.surrogate = {f.kind, f.scale};
    core::PretrainedScenario scenario =
        core::make_pretrained_scenario(pc, cfg.get_bool("verbose", false));

    core::ClRunConfig run;
    run.method = core::bench_replay4ncl();
    run.method.lr_cl = 5e-4f;  // η_pre/2; see bench_replay4ncl() for the η rescaling
    run.insertion_layer = 2;
    run.epochs = epochs;
    run.eval_every = epochs;
    const core::ClRunResult res =
        core::run_continual_learning(scenario.net, scenario.tasks, run);

    table.add_row();
    table.push(f.name);
    table.push(bench::pct(scenario.pretrain_accuracy));
    table.push(bench::pct(res.final_acc_old));
    table.push(bench::pct(res.final_acc_new));
  }
  bench::emit(table, "abl_surrogate",
              "Ablation: surrogate-gradient family (half-scale scenario, LR layer 2)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return core::run_cli(argc, argv, run_main); }
