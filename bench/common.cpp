#include "common.hpp"

#include <cstdio>

namespace r4ncl::bench {

BenchContext make_context(int argc, char** argv,
                          std::initializer_list<std::string_view> extra_keys) {
  const Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(cfg, extra_keys);
  return BenchContext{cfg, core::ScopedMetrics(cfg), core::standard_scenario(cfg)};
}

void emit(const ResultTable& table, const std::string& name, const std::string& title) {
  table.print(title);
  const std::string csv_path = name + ".csv";
  table.write_csv(csv_path);
  const std::string json_path = name + ".json";
  table.write_json(json_path);
  std::printf("[%s] wrote %s and %s\n", name.c_str(), csv_path.c_str(), json_path.c_str());
}

std::string pct(double fraction) { return format_double(fraction * 100.0, 2); }

std::string ratio(double value) { return format_double(value, 2); }

core::ClRunResult run_method(const BenchContext& ctx, const core::NclMethodConfig& method,
                             std::size_t insertion_layer, std::size_t epochs,
                             std::size_t eval_every) {
  snn::SnnNetwork net = ctx.scenario.net.clone();
  core::ClRunConfig rc;
  rc.method = method;
  rc.insertion_layer = insertion_layer;
  rc.epochs = epochs;
  rc.eval_every = eval_every;
  rc.seed = 2024;
  return core::run_continual_learning(net, ctx.scenario.tasks, rc);
}

}  // namespace r4ncl::bench
