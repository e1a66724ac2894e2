#include "core/method_config.hpp"

namespace r4ncl::core {

snn::ThresholdPolicy NclMethodConfig::policy() const {
  if (adaptive_threshold) {
    return snn::ThresholdPolicy::adaptive(static_cast<int>(cl_timesteps), 1.0f,
                                          adjust_interval);
  }
  return snn::ThresholdPolicy::fixed(1.0f);
}

NclMethodConfig NclMethodConfig::with_latent_bits(std::uint8_t bits) const {
  NclMethodConfig cfg = *this;
  cfg.storage_codec.latent_bits = bits;
  // Strip any previous "-q<N>" suffix so chained calls stay truthful.
  if (const std::size_t pos = cfg.name.rfind("-q");
      pos != std::string::npos && pos + 2 < cfg.name.size() &&
      cfg.name.find_first_not_of("0123456789", pos + 2) == std::string::npos) {
    cfg.name.erase(pos);
  }
  if (bits > 0) cfg.name += "-q" + std::to_string(bits);
  return cfg;
}

NclMethodConfig NclMethodConfig::replay4ncl(std::size_t timesteps) {
  NclMethodConfig cfg;
  cfg.name = "Replay4NCL";
  cfg.cl_timesteps = timesteps;                 // Sec. III-A: T* = 40
  cfg.storage_codec = {.ratio = 1};             // stored directly at T*
  cfg.lr_cl = kEtaPre / 100.0f;                 // Alg. 1 line 6/21
  cfg.adaptive_threshold = true;                // Alg. 1 lines 10–17 / 25–30
  return cfg;
}

NclMethodConfig NclMethodConfig::spiking_lr() {
  NclMethodConfig cfg;
  cfg.name = "SpikingLR";
  cfg.cl_timesteps = 100;                       // SOTA operates at T = 100
  cfg.storage_codec = {.ratio = 2, .strategy = compress::CodecStrategy::kSubsample};
  cfg.lr_cl = kEtaPre;
  cfg.adaptive_threshold = false;
  return cfg;
}

NclMethodConfig NclMethodConfig::spiking_lr_reduced(std::size_t timesteps) {
  NclMethodConfig cfg = spiking_lr();
  cfg.name = "SpikingLR-T" + std::to_string(timesteps);
  cfg.cl_timesteps = timesteps;  // naive reduction, no compensation (Fig. 8)
  return cfg;
}

NclMethodConfig NclMethodConfig::naive_baseline() {
  NclMethodConfig cfg;
  cfg.name = "Baseline";
  cfg.cl_timesteps = 100;
  cfg.use_replay = false;  // fine-tune on the new task only → forgetting
  cfg.lr_cl = kEtaPre;
  return cfg;
}

}  // namespace r4ncl::core
