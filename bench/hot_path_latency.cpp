// SNN hot-path latency: event-driven forward vs the dense kernel reference
// and batch-parallel training across thread counts — with the bit-identity
// contracts of both enforced as self-checks.
//
// Row modes:
//   forward        — RecurrentLifLayer::forward at a given input density with
//                    the dense cube already in hand: wall_ms is the
//                    event-driven path (forward), ref_ms the dense reference
//                    (forward_dense), speedup the ratio.  `identical`
//                    asserts bitwise-equal output cubes AND equal
//                    SpikeOpStats (the sparse path derives synops from the
//                    event list; the dense path count_nonzero-rescans).  The
//                    dense matmul already skips zero activations, so the
//                    in-hand win is bounded by the eliminated scans — this
//                    mode carries no speedup gate, only the identity one.
//   forward_aer    — the from-storage comparison the hot path was built for:
//                    replay samples live as AER, so the legacy pipeline must
//                    decode every sample to a dense raster and fill the batch cube
//                    before the dense kernel can run, while the event path
//                    goes AER → events_from_aer → forward_events with no
//                    dense input cube ever built.  Both sides are timed
//                    end-to-end from the stored AER; this is the mode the
//                    >= 2x acceptance gate applies to.
//   train_threads  — train_supervised at threads=4 vs threads=1 on clones of
//                    one network: `identical` asserts the final weights match
//                    byte for byte (fixed reduction orders), speedup is the
//                    threads=1 / threads=4 wall ratio.
//
// Self-checks: every `identical` column is enforced unconditionally (exit 1
// on mismatch).  With strict=1 (the default; the smoke lane passes strict=0
// because CI machines are noisy) the perf envelope is enforced too: the
// best forward_aer speedup among rows with density <= 0.10 must be >= 2.0.
// This is the acceptance gate replayed offline by tools/check_bench.py over
// the checked-in BENCH_hot_path.json.
//
// This bench is synthetic (no pre-training scenario): it isolates the layer
// and trainer hot paths, so it runs in seconds and is deterministic per
// seed.  Knobs (key=value or R4NCL_<KEY>): channels=700 n_out=200
// timesteps=40 batch=16 reps=5 strict=1 threads=N verbose=1.
// Writes hot_path_latency.csv/.json (checked in at the repo root as
// BENCH_hot_path.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "compress/aer.hpp"
#include "data/spike_data.hpp"
#include "snn/layer.hpp"
#include "snn/network.hpp"
#include "snn/trainer.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"

using namespace r4ncl;

namespace {

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double density,
                                std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(density) ? 1 : 0;
  return r;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(float)) == 0;
}

bool same_stats(const snn::SpikeOpStats& a, const snn::SpikeOpStats& b) {
  return a.synops == b.synops && a.neuron_updates == b.neuron_updates &&
         a.spikes == b.spikes && a.timestep_slots == b.timestep_slots &&
         a.backward_synops == b.backward_synops &&
         a.decompress_bits == b.decompress_bits;
}

/// Every learned parameter of `net`, flattened — byte-compared to prove the
/// threads knob changes nothing but wall-clock.
std::vector<float> all_weights(const snn::SnnNetwork& net) {
  std::vector<float> w;
  for (std::size_t i = 0; i < net.num_hidden(); ++i) {
    const auto ff = net.hidden(i).w_ff().values();
    const auto rec = net.hidden(i).w_rec().values();
    w.insert(w.end(), ff.begin(), ff.end());
    w.insert(w.end(), rec.begin(), rec.end());
  }
  const auto ro = net.readout().w().values();
  w.insert(w.end(), ro.begin(), ro.end());
  return w;
}

bool same_weights(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(
      cfg, {"batch", "channels", "n_out", "reps", "strict", "timesteps"});
  const core::ScopedMetrics metrics(cfg);
  init_log_level_from_env();
  init_threads_from_env();
  if (const long long threads = cfg.get_int("threads", 0); threads > 0) {
    set_num_threads(static_cast<int>(threads));
  }
  const std::size_t C = static_cast<std::size_t>(cfg.get_int("channels", 700));
  const std::size_t n_out = static_cast<std::size_t>(cfg.get_int("n_out", 200));
  const std::size_t T = static_cast<std::size_t>(cfg.get_int("timesteps", 40));
  const std::size_t B = static_cast<std::size_t>(cfg.get_int("batch", 16));
  const std::size_t reps = static_cast<std::size_t>(cfg.get_int("reps", 5));
  const bool strict = cfg.get_bool("strict", true);
  const int base_threads = num_threads();

  ResultTable table({"mode", "density", "threads", "reps", "wall_ms", "ref_ms", "speedup",
                     "spike_checksum", "identical"});
  const auto add_row = [&](const std::string& mode, const std::string& density,
                           const std::string& threads, double wall_ms, double ref_ms,
                           std::uint64_t checksum, bool identical) {
    table.add_row();
    table.push(mode);
    table.push(density);
    table.push(threads);
    table.push(static_cast<long long>(reps));
    table.push(format_double(wall_ms, 3));
    table.push(format_double(ref_ms, 3));
    table.push(format_double(ref_ms / wall_ms, 3));
    table.push(static_cast<long long>(checksum));
    table.push(static_cast<long long>(identical ? 1 : 0));
  };

  bool identity_fail = false;
  bool strict_fail = false;
  const snn::ThresholdPolicy policy = snn::ThresholdPolicy::fixed(1.0f);

  // -- forward: event-driven vs dense, input cube already in hand -----------
  // Same layer, same input cube, both kernels; the sparse path must reproduce
  // the dense output (and stats) bit for bit.  No speedup gate here: the
  // dense matmul zero-skips, so the in-hand delta is only the eliminated
  // count_nonzero/zero-check rescans.
  {
    Rng wrng(11);
    const snn::RecurrentLifLayer layer(C, n_out, snn::LifParams{},
                                       snn::SurrogateParams{}, wrng);
    const double densities[] = {0.02, 0.05, 0.10, 0.30};
    for (const double density : densities) {
      Tensor x(T, B, C);
      Rng xrng(static_cast<std::uint64_t>(density * 1000) + 101);
      for (auto& v : x.values()) v = xrng.bernoulli(density) ? 1.0f : 0.0f;

      snn::SpikeOpStats dense_stats, sparse_stats;
      Tensor dense_out, sparse_out;
      std::vector<double> dense_walls, sparse_walls;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        dense_stats = {};
        Stopwatch dw;
        dense_out =
            layer.forward_dense(x, snn::SpikeMode::kHard, policy, nullptr, &dense_stats);
        dense_walls.push_back(dw.elapsed_ms());

        sparse_stats = {};
        Stopwatch sw;
        sparse_out = layer.forward(x, snn::SpikeMode::kHard, policy, nullptr, &sparse_stats);
        sparse_walls.push_back(sw.elapsed_ms());
      }
      const bool identical =
          same_bits(dense_out, sparse_out) && same_stats(dense_stats, sparse_stats);
      if (!identical) {
        std::printf("BUG: sparse forward diverges from dense at density %.2f\n", density);
        identity_fail = true;
      }
      add_row("forward", format_double(density, 2), std::to_string(num_threads()),
              median(sparse_walls), median(dense_walls), sparse_stats.spikes, identical);
    }
  }

  // -- forward_aer: from stored AER to layer output, both pipelines ---------
  // Replay storage holds AER, so this is the end-to-end hot path: the legacy
  // side pays aer_decode_into + fill_batch_column + dense forward, the event
  // side pays events_from_aer + forward_events (no dense input cube at all).
  // The >= 2x acceptance gate lives here.
  double best_aer_speedup = 0.0;
  {
    Rng wrng(12);
    const snn::RecurrentLifLayer layer(C, n_out, snn::LifParams{},
                                       snn::SurrogateParams{}, wrng);
    const double densities[] = {0.02, 0.05, 0.10};
    for (const double density : densities) {
      std::vector<compress::AerRaster> aer;
      for (std::size_t b = 0; b < B; ++b) {
        aer.push_back(compress::aer_encode(random_raster(
            T, C, density, 500 + b + static_cast<std::uint64_t>(density * 10000))));
      }
      snn::SpikeOpStats dense_stats, event_stats;
      Tensor dense_out, event_out;
      std::vector<double> dense_walls, event_walls;
      Tensor x;
      data::SpikeRaster scratch;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        dense_stats = {};
        Stopwatch dw;
        data::ensure_batch_shape(x, T, B, C);
        for (std::size_t b = 0; b < B; ++b) {
          compress::aer_decode_into(aer[b], scratch);
          data::fill_batch_column(x, b, scratch);
        }
        dense_out =
            layer.forward_dense(x, snn::SpikeMode::kHard, policy, nullptr, &dense_stats);
        dense_walls.push_back(dw.elapsed_ms());

        event_stats = {};
        Stopwatch ew;
        const compress::BatchEventList events = compress::events_from_aer(aer);
        event_out =
            layer.forward_events(events, snn::SpikeMode::kHard, policy, &event_stats);
        event_walls.push_back(ew.elapsed_ms());
      }
      const bool identical =
          same_bits(dense_out, event_out) && same_stats(dense_stats, event_stats);
      if (!identical) {
        std::printf("BUG: forward_events over AER diverges from dense at density %.2f\n",
                    density);
        identity_fail = true;
      }
      const double wall = median(event_walls);
      const double ref = median(dense_walls);
      if (density <= 0.10) best_aer_speedup = std::max(best_aer_speedup, ref / wall);
      add_row("forward_aer", format_double(density, 2), std::to_string(num_threads()), wall,
              ref, event_stats.spikes, identical);
    }
    if (strict && best_aer_speedup < 2.0) {
      std::printf(
          "BUG: best from-AER sparse-forward speedup %.3f at density <= 0.10 below 2.0\n",
          best_aer_speedup);
      strict_fail = true;
    }
  }

  // -- train_threads: batch-parallel training, threads=4 vs threads=1 -------
  std::uint64_t thread_spikes = 0;
  {
    snn::NetworkConfig ncfg;
    ncfg.layer_sizes = {64, 48, 32};
    ncfg.num_classes = 5;
    ncfg.seed = 21;
    const snn::SnnNetwork base(ncfg);
    data::Dataset train;
    for (std::size_t i = 0; i < 96; ++i) {
      train.push_back({random_raster(20, 64, 0.1, 3000 + i),
                       static_cast<std::int32_t>(i % 5)});
    }
    const auto run_train = [&](int threads, std::vector<float>* weights,
                               std::uint64_t* spikes) {
      set_num_threads(threads);
      snn::SnnNetwork net = base.clone();
      snn::AdamOptimizer optimizer;
      snn::TrainOptions opts;
      opts.epochs = 2;
      opts.batch_size = 16;
      opts.lr = 1e-3f;
      opts.shuffle_seed = 13;
      Stopwatch watch;
      const auto history = snn::train_supervised(net, train, optimizer, opts);
      const double wall = watch.elapsed_ms();
      if (weights != nullptr) *weights = all_weights(net);
      if (spikes != nullptr) {
        *spikes = 0;
        for (const auto& rec : history) *spikes += rec.stats.spikes;
      }
      return wall;
    };
    std::vector<float> w1, w4;
    std::vector<double> walls1, walls4;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      walls1.push_back(run_train(1, &w1, nullptr));
      walls4.push_back(run_train(4, &w4, &thread_spikes));
    }
    set_num_threads(base_threads);
    const bool identical = same_weights(w1, w4);
    if (!identical) {
      std::printf("BUG: threads=4 training weights diverge from threads=1\n");
      identity_fail = true;
    }
    add_row("train_threads", "-", "4", median(walls4), median(walls1), thread_spikes,
            identical);
  }

  bench::emit(table, "hot_path_latency",
              "SNN hot path: event-driven forward vs dense and batch-parallel "
              "training, with bit-identity self-checks");
  return (identity_fail || strict_fail) ? 1 : 0;
}
