#include "core/pretrain.hpp"

#include "util/logging.hpp"

namespace r4ncl::core {

PretrainedScenario make_pretrained_scenario(const PretrainConfig& config, bool verbose) {
  const data::SyntheticShdGenerator generator(config.data_params);
  PretrainedScenario scenario{
      .net = snn::SnnNetwork(config.network),
      .tasks = data::build_class_incremental(generator, config.split),
      .pretrain_accuracy = 0.0,
  };
  R4NCL_INFO("pre-training on " << scenario.tasks.pretrain_train.size() << " samples ("
                                << scenario.tasks.old_classes.size() << " classes, "
                                << config.epochs << " epochs)...");
  snn::AdamOptimizer optimizer;
  snn::TrainOptions opts;
  opts.epochs = config.epochs;
  opts.batch_size = config.batch_size;
  opts.lr = config.lr;
  opts.shuffle_seed = config.shuffle_seed;
  opts.verbose = verbose;
  (void)snn::train_supervised(scenario.net, scenario.tasks.pretrain_train, optimizer, opts);
  scenario.pretrain_accuracy = snn::evaluate(scenario.net, scenario.tasks.pretrain_test);
  R4NCL_INFO("pre-train old-task test accuracy: " << scenario.pretrain_accuracy);
  return scenario;
}

}  // namespace r4ncl::core
