#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace r4ncl::core {

PretrainConfig standard_pretrain_config(double scale) {
  scale = std::clamp(scale, 0.05, 4.0);
  PretrainConfig config;
  // Paper geometry: 700-200-100-50 hidden stack, 20-class readout, T = 100.
  config.network.layer_sizes = {700, 200, 100, 50};
  config.network.num_classes = 20;
  config.network.lif.beta = 0.95f;
  config.network.surrogate = {snn::SurrogateKind::kFastSigmoid, 10.0f};
  config.network.readout_beta = 0.95f;
  config.network.seed = 7;
  config.data_params = {};  // 700 channels, 20 classes, 100 timesteps
  config.split.train_per_class = std::max<std::size_t>(4, static_cast<std::size_t>(12 * scale));
  config.split.test_per_class = std::max<std::size_t>(4, static_cast<std::size_t>(8 * scale));
  // Two retained samples per old class keeps the replay buffer small enough
  // that catastrophic-forgetting pressure is visible (as in the paper, where
  // the latent memory is a scarce on-device resource).
  config.split.replay_per_class = std::max<std::size_t>(2, static_cast<std::size_t>(2 * scale));
  config.split.new_class = 19;
  config.epochs = 8;
  config.batch_size = 16;
  config.lr = kEtaPre;
  return config;
}

PretrainConfig pretrain_config_from(const Config& cfg) {
  PretrainConfig config = standard_pretrain_config(cfg.get_double("scale", 1.0));
  config.epochs = static_cast<std::size_t>(
      cfg.get_int("pretrain_epochs", static_cast<long long>(config.epochs)));
  return config;
}

PretrainedScenario standard_scenario(const Config& cfg) {
  init_runtime(cfg);
  return make_pretrained_scenario(pretrain_config_from(cfg), cfg.get_bool("verbose", false));
}

NclMethodConfig bench_replay4ncl(std::size_t timesteps) {
  NclMethodConfig cfg = NclMethodConfig::replay4ncl(timesteps);
  cfg.lr_cl = kEtaPre / 5.0f;  // step-count rescaling; see header comment
  return cfg;
}

NclMethodConfig bench_spiking_lr() { return NclMethodConfig::spiking_lr(); }

namespace {

// ---- The declarative CLI knob table ---------------------------------------
// Each replay-method knob's parse + eager validation lives in one small
// function; the table below binds it to the knob's name and help text.
// Scenario/checkpoint/telemetry knobs keep their own readers and appear
// here with apply = nullptr so the key vocabulary still has one source of
// truth.  Every value validates eagerly with a pinned message naming the
// valid set — a typo in a sweep config must fail before any pre-training
// or task runs, not at the first task boundary.

void apply_budget(NclMethodConfig& method, const Config& cfg) {
  // Negative values would wrap through static_cast<std::size_t> into
  // ~SIZE_MAX (an accidental "unbounded" budget / draw) — reject them.
  const long long budget = cfg.get_int(
      "budget", static_cast<long long>(method.replay_budget.capacity_bytes));
  R4NCL_CHECK(budget >= 0,
              "budget=" << budget << " must be a non-negative byte count (0 = unbounded)");
  method.replay_budget.capacity_bytes = static_cast<std::size_t>(budget);
}

void apply_budget_schedule(NclMethodConfig& method, const Config& cfg) {
  if (const auto schedule = cfg.get("budget_schedule")) {
    method.budget_schedule = parse_budget_schedule(*schedule);
  }
}

void apply_importance_feedback(NclMethodConfig& method, const Config& cfg) {
  method.importance_feedback =
      cfg.get_bool("importance_feedback", method.importance_feedback);
}

void apply_latent_bits(NclMethodConfig& method, const Config& cfg) {
  const long long bits = cfg.get_int(
      "latent_bits", static_cast<long long>(method.storage_codec.latent_bits));
  R4NCL_CHECK(bits == 0 || (bits > 0 && bits <= 8 &&
                            compress::valid_payload_bits(static_cast<unsigned>(bits))),
              "latent_bits=" << bits << " (expected 0|1|2|4|8)");
  method.storage_codec.latent_bits = static_cast<std::uint8_t>(bits);
}

void apply_policy(NclMethodConfig& method, const Config& cfg) {
  if (const auto policy = cfg.get("policy")) {
    method.replay_budget.policy = parse_replay_policy(*policy);
  }
}

void apply_replay_samples(NclMethodConfig& method, const Config& cfg) {
  const long long samples = cfg.get_int(
      "replay_samples", static_cast<long long>(method.replay_samples_per_epoch));
  R4NCL_CHECK(samples >= 0, "replay_samples=" << samples
                                              << " must be a non-negative entry count "
                                                 "(0 = the whole store, streamed)");
  method.replay_samples_per_epoch = static_cast<std::size_t>(samples);
}

void apply_replay_seed(NclMethodConfig& method, const Config& cfg) {
  if (const auto seed_text = cfg.get("replay_seed")) {
    // Unsigned decimal parse: a seed spans the full uint64 range, which
    // get_int's signed 64-bit value cannot hold.
    std::uint64_t seed = 0;
    R4NCL_CHECK(parse_unsigned_decimal(*seed_text, seed),
                "replay_seed=" << *seed_text
                               << " must be a non-negative eviction seed");
    method.replay_budget.seed = seed;
  }
}

void apply_shard_by(NclMethodConfig& method, const Config& cfg) {
  if (const auto shard_by = cfg.get("shard_by")) {
    method.replay_sharding.shard_by = parse_shard_key(*shard_by);
  }
}

void apply_shards(NclMethodConfig& method, const Config& cfg) {
  // shards=1 keeps runs bit-identical to the single-buffer era.
  const long long shards =
      cfg.get_int("shards", static_cast<long long>(method.replay_sharding.shards));
  R4NCL_CHECK(shards >= 1, "shards=" << shards << " must be a positive shard count");
  method.replay_sharding.shards = static_cast<std::size_t>(shards);
}

/// The one reader of threads= (the CLI value, or R4NCL_THREADS).  A value
/// past INT_MAX is rejected too: narrowed to int it would wrap.
int threads_from(const Config& cfg, int fallback) {
  const long long threads = cfg.get_int("threads", fallback);
  R4NCL_CHECK(threads >= 0 && threads <= std::numeric_limits<int>::max(),
              "threads=" << threads << " must be a non-negative worker count (0 = default)");
  return static_cast<int>(threads);
}

void apply_threads(NclMethodConfig& method, const Config& cfg) {
  // threads= is applied process-wide by init_runtime; recording it on the
  // method too lets the run engines re-assert it (library callers that
  // never go through init_runtime get the same knob).
  method.threads = threads_from(cfg, method.threads);
}

// Sorted by name: standard_cli_keys() returns this column order verbatim,
// and validate_keys error messages list keys sorted.
constexpr CliKnob kStandardKnobs[] = {
    {"budget", "replay-buffer byte budget (0 = unbounded)", apply_budget},
    {"budget_schedule",
     "per-task budget evolution: const | linear:<start>:<end> | step:<task>:<bytes>",
     apply_budget_schedule},
    {"checkpoint", "write a run checkpoint at every cadence boundary to this path", nullptr},
    {"checkpoint_every", "checkpoint save cadence in completed tasks/epochs (>= 1)", nullptr},
    {"epochs", "continual-learning epoch count (bench default when absent)", nullptr},
    {"importance_feedback",
     "feed per-sample replay errors back into importance scores (importance policies only)",
     apply_importance_feedback},
    {"latent_bits", "stored payload depth: 0 = legacy binary, 1/2/4/8 = quantized counts",
     apply_latent_bits},
    {"metrics_out", "write the telemetry registry snapshot (JSON) to this path", nullptr},
    {"policy",
     "eviction policy: fifo | reservoir | class_balanced | low_importance | "
     "importance_class_balanced",
     apply_policy},
    {"pretrain_epochs", "pre-training epoch count (default 8)", nullptr},
    {"replay_samples", "replay entries drawn per epoch (0 = the whole store, streamed)",
     apply_replay_samples},
    {"replay_seed", "the buffer's private eviction-stream seed", apply_replay_seed},
    {"resume", "restore a prior checkpoint from this path before any unit runs", nullptr},
    {"scale", "dataset sample-count scale (1.0 = paper-faithful counts)", nullptr},
    {"shard_by", "shard routing key for adds: class | hash", apply_shard_by},
    {"shards", "replay-store shard count (1 = bit-identical single-buffer)", apply_shards},
    {"threads", "worker count, applied process-wide before pre-training (0 = default)",
     apply_threads},
    {"trace", "wall-clock trace histograms in the metrics registry (default 1)", nullptr},
    {"verbose", "per-epoch progress logging (0|1)", nullptr},
};

// The knobs every standard binary reads, the vocabulary of
// validate_standard_keys: the scenario knobs (pretrain_config_from,
// init_runtime, standard_scenario), the CL epoch count and the telemetry
// knobs (init_metrics).  A binary that applies a checkpoint or replay knob
// names it as an extra.
constexpr std::string_view kEveryBinaryKeys[] = {
    "epochs", "metrics_out", "pretrain_epochs", "scale", "threads", "trace", "verbose"};

}  // namespace

void init_runtime(const Config& cfg) {
  init_log_level_from_env();
  if (const int threads = threads_from(cfg, 0); threads > 0) set_num_threads(threads);
}

std::span<const CliKnob> standard_cli_knobs() { return kStandardKnobs; }

void apply_replay_overrides(NclMethodConfig& method, const Config& cfg) {
  for (const CliKnob& knob : kStandardKnobs) {
    if (knob.apply != nullptr) knob.apply(method, cfg);
  }
}

MetricsOptions init_metrics(const Config& cfg) {
  MetricsOptions options;
  options.out_path = cfg.get_string("metrics_out", "");
  options.trace = cfg.get_bool("trace", true);
  if (!options.out_path.empty()) {
    // An unwritable path fails here, before any pre-training, not in the
    // snapshot write at scope exit.  The probe appends nothing and removes
    // the file if it created it.
    std::error_code ec;
    const bool existed = std::filesystem::exists(options.out_path, ec);
    R4NCL_CHECK(std::ofstream(options.out_path, std::ios::app).good(),
                "cannot open metrics_out path '" << options.out_path << "' for writing");
    if (!existed) std::filesystem::remove(options.out_path, ec);
  }
  // Arm only on explicit request: a disarmed registry keeps plain runs on
  // the pre-telemetry fast path (and bit-identical to it, pinned by tests).
  const bool arm = !options.out_path.empty() || cfg.get("trace").has_value();
  obs::MetricsRegistry& registry = obs::metrics();
  registry.set_trace(options.trace);
  registry.set_armed(arm);
  return options;
}

void write_metrics_snapshot(const MetricsOptions& options) {
  if (options.out_path.empty()) return;
  obs::write_snapshot(obs::metrics(), options.out_path);
}

CheckpointOptions checkpoint_options_from(const Config& cfg) {
  CheckpointOptions options;
  options.save_path = cfg.get_string("checkpoint", "");
  options.resume_path = cfg.get_string("resume", "");
  const long long every = cfg.get_int("checkpoint_every", 1);
  R4NCL_CHECK(every >= 1,
              "checkpoint_every=" << every << " must be a positive unit count");
  R4NCL_CHECK(every == 1 || options.saving(),
              "checkpoint_every=" << every << " requires checkpoint=<path>");
  options.every = static_cast<std::size_t>(every);
  return options;
}

std::vector<std::string_view> standard_cli_keys() {
  std::vector<std::string_view> keys;
  keys.reserve(std::size(kStandardKnobs));
  for (const CliKnob& knob : kStandardKnobs) keys.push_back(knob.name);
  return keys;
}

void validate_standard_keys(const Config& cfg,
                            std::initializer_list<std::string_view> extra) {
  std::vector<std::string_view> known(std::begin(kEveryBinaryKeys), std::end(kEveryBinaryKeys));
  known.insert(known.end(), extra.begin(), extra.end());
  cfg.validate_keys(known);
}

int run_cli(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace r4ncl::core
