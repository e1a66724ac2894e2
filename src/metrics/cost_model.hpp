// Event-driven latency and energy models.
//
// The paper reports *normalized* latency and energy measured on a GPU; this
// repo substitutes an event-driven neuromorphic cost model in the style used
// throughout the embedded-SNN literature (SpikeDyn, TopSpark, FSpiNN):
//
//   energy  = synops·E_syn + updates·E_upd + spikes·E_spk
//           + backward_ops·E_bwd + decompress_bits·E_bit + slots·E_step
//   latency = the same linear form with per-op times, i.e. a sequential
//             timestep-by-timestep execution.
//
// Only *ratios* between methods enter the reproduced figures, and those
// ratios are driven by timestep counts, spike counts and codec work — the
// quantities the paper's own savings derive from.  Default constants are
// Loihi-class per-op costs (Davies et al., IEEE Micro 2018, order-of-
// magnitude).  Measured wall-clock seconds stay out of every result; the obs
// registry's trace histograms (trainer.epoch_seconds, core.cl_epoch_seconds)
// hold them.
#pragma once

#include "snn/layer.hpp"

namespace r4ncl::metrics {

/// Per-op energy constants in picojoules.
struct EnergyModelParams {
  double synop_pj = 23.6;        // per synaptic event delivered
  double neuron_update_pj = 81.0;  // per membrane update per timestep
  double spike_pj = 1.8;         // per emitted spike
  double backward_op_pj = 4.6;   // per dense gradient MAC (training)
  double decompress_bit_pj = 0.9;  // codec work per payload bit
  double timestep_slot_pj = 120.0; // per (layer × timestep × sample) overhead
};

/// Per-op latency constants in nanoseconds (sequential execution model).
struct LatencyModelParams {
  double synop_ns = 3.2;
  double neuron_update_ns = 5.5;
  double spike_ns = 0.0;           // spike emission folded into the update
  double backward_op_ns = 0.55;
  double decompress_bit_ns = 0.4;
  double timestep_slot_ns = 90.0;
};

/// Converts SpikeOpStats into microjoules.
class EnergyModel {
 public:
  explicit EnergyModel(const EnergyModelParams& params = {}) : params_(params) {}
  [[nodiscard]] double energy_uj(const snn::SpikeOpStats& stats) const noexcept;

 private:
  EnergyModelParams params_;
};

/// Converts SpikeOpStats into milliseconds of modelled processing time.
class LatencyModel {
 public:
  explicit LatencyModel(const LatencyModelParams& params = {}) : params_(params) {}
  [[nodiscard]] double latency_ms(const snn::SpikeOpStats& stats) const noexcept;

 private:
  LatencyModelParams params_;
};

}  // namespace r4ncl::metrics
