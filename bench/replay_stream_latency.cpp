// Streaming replay assembly: wall-clock and peak memory of the per-epoch
// replay draw, full materialization (ShardedReplayEngine::sample_into) vs the
// ReplayStream minibatch cursor, across codec × latent_bits × minibatch.
//
// Latent replay's real-time cost is not just storage: assembling the replay
// set each epoch decompresses every drawn entry, and a draw decoded up front
// holds all k decoded (T × C) rasters at once before training sees the first
// batch
// (Pellegrini et al.; Ravaglia et al.).  The streaming path decodes at most
// one minibatch at a time into a scratch pool — this bench records what that
// buys (peak replay-assembly bytes) and what it costs (wall-clock), plus raw
// unpack-kernel rates so the byte-parallel sub-byte decoders can be compared
// against the legacy binary path directly.
//
// Row modes:
//   sample  — full materialization via store.sample_into(k, rng, out): peak
//             bytes is the whole decoded draw.
//   stream  — ReplayStream cursor at the given minibatch: identical entry
//             set (same Rng), peak bytes is the scratch pool high-water.
//             The bench asserts the spike checksum matches `sample` per
//             codec, so the rows are at equal replayed content (and, by the
//             engine equivalence tests, equal accuracy).
//   kernel  — raw decode rate of one large packed raster (ns/element):
//             unpack() for the binary layout, unpack_elements() for 2/4/8.
//
// This bench is synthetic (no SNN training): it isolates replay assembly,
// so it runs in seconds and is deterministic per seed.  Knobs (key=value or
// R4NCL_<KEY>): entries=192 channels=200 timesteps=40 draws=96 reps=5
// threads=N verbose=1.  Writes replay_stream_latency.csv/.json (checked in
// at the repo root as BENCH_replay_stream.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/replay_stream.hpp"
#include "core/sharded_engine.hpp"
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

struct CodecCase {
  std::string name;
  compress::CodecConfig codec;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The pre-kernel scalar binary decode (one shift/mask per element) — the
/// "legacy binary unpack" yardstick the byte-parallel sub-byte kernels are
/// measured against.
void scalar_unpack(const compress::PackedRaster& packed, data::SpikeRaster& out) {
  const std::size_t row_bytes = packed.row_bytes();
  out.timesteps = packed.timesteps;
  out.channels = packed.channels;
  out.bits.resize(static_cast<std::size_t>(packed.timesteps) * packed.channels);
  for (std::size_t t = 0; t < packed.timesteps; ++t) {
    const std::uint8_t* row = packed.payload.data() + t * row_bytes;
    std::uint8_t* dst = out.bits.data() + t * packed.channels;
    for (std::size_t c = 0; c < packed.channels; ++c) {
      dst[c] = (row[c >> 3] >> (c & 7u)) & 1u;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  core::validate_standard_keys(cfg, {"entries", "channels", "timesteps", "draws", "reps"});
  const core::ScopedMetrics metrics(cfg);
  init_log_level_from_env();
  init_threads_from_env();
  const std::size_t entries = static_cast<std::size_t>(cfg.get_int("entries", 192));
  const std::size_t C = static_cast<std::size_t>(cfg.get_int("channels", 200));
  const std::size_t T = static_cast<std::size_t>(cfg.get_int("timesteps", 40));
  const std::size_t draws = static_cast<std::size_t>(cfg.get_int("draws", 96));
  const std::size_t reps = static_cast<std::size_t>(cfg.get_int("reps", 5));
  const std::size_t minibatches[] = {8, 32};

  const CodecCase cases[] = {
      {"raw", {.ratio = 1, .latent_bits = 0}},
      {"binary-r2", {.ratio = 2, .latent_bits = 0}},
      {"quant8-r2", {.ratio = 2, .latent_bits = 8}},
      {"quant4-r2", {.ratio = 2, .latent_bits = 4}},
      {"quant2-r2", {.ratio = 2, .latent_bits = 2}},
  };

  ResultTable table({"mode", "codec", "latent_bits", "minibatch", "draws", "wall_ms",
                     "ns_per_elem", "peak_assembly_bytes", "decompress_mbits",
                     "spike_checksum"});
  const auto add_row = [&](const std::string& mode, const CodecCase& cc,
                           const std::string& minibatch, double wall_ms, double ns_per_elem,
                           std::size_t peak_bytes, double mbits, std::uint64_t checksum) {
    table.add_row();
    table.push(mode);
    table.push(cc.name);
    table.push(static_cast<long long>(cc.codec.latent_bits));
    table.push(minibatch);
    table.push(static_cast<long long>(draws));
    table.push(wall_ms >= 0 ? format_double(wall_ms, 3) : "-");
    table.push(ns_per_elem >= 0 ? format_double(ns_per_elem, 3) : "-");
    table.push(static_cast<long long>(peak_bytes));
    table.push(format_double(mbits, 2));
    table.push(static_cast<long long>(checksum));
  };

  bool checksum_mismatch = false;
  for (const CodecCase& cc : cases) {
    // The run engines' store: a single-shard engine.
    core::ShardedReplayEngine buffer(cc.codec, T);
    for (std::size_t i = 0; i < entries; ++i) {
      buffer.add(random_raster(T, C, 0.15, 1000 + i), static_cast<std::int32_t>(i % 10));
    }

    // -- sample_into(): the full-materialization reference -----------------
    // The draw is capped at the resident entry count, so that is also the
    // number of rasters the materialized path holds at peak.
    const std::size_t materialized = std::min(draws, buffer.size());
    const std::size_t full_bytes = materialized * T * C;
    std::uint64_t sample_checksum = 0;
    snn::SpikeOpStats sample_stats;
    std::vector<double> sample_walls;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Rng rng(7);
      sample_stats = {};
      sample_checksum = 0;
      Stopwatch watch;
      data::Dataset ds;
      (void)buffer.sample_into(draws, rng, ds, &sample_stats);
      for (const auto& s : ds) sample_checksum += s.raster.spike_count();
      sample_walls.push_back(watch.elapsed_ms());
    }
    add_row("sample", cc, "-", median(sample_walls), -1, full_bytes,
            static_cast<double>(sample_stats.decompress_bits) / 1e6, sample_checksum);

    // -- ReplayStream at each minibatch ------------------------------------
    for (const std::size_t m : minibatches) {
      // A minibatch >= the draw decodes everything at once — that is the
      // `sample` row above, so it adds no information and the peak-bytes
      // invariant below (streamed < full) does not apply.
      if (m >= materialized) continue;
      std::uint64_t stream_checksum = 0;
      std::size_t peak = 0;
      snn::SpikeOpStats stream_stats;
      std::vector<double> stream_walls;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        Rng rng(7);
        stream_stats = {};
        stream_checksum = 0;
        Stopwatch watch;
        core::ReplayStream stream = buffer.stream(draws, rng, m, &stream_stats);
        while (!stream.done()) {
          for (const data::Sample& s : stream.next()) {
            stream_checksum += s.raster.spike_count();
          }
        }
        stream_walls.push_back(watch.elapsed_ms());
        peak = stream.peak_assembly_bytes();
      }
      add_row("stream", cc, std::to_string(m), median(stream_walls), -1, peak,
              static_cast<double>(stream_stats.decompress_bits) / 1e6, stream_checksum);
      if (stream_checksum != sample_checksum) {
        std::printf("BUG: stream checksum %llu != sample checksum %llu (%s, m=%zu)\n",
                    static_cast<unsigned long long>(stream_checksum),
                    static_cast<unsigned long long>(sample_checksum), cc.name.c_str(), m);
        checksum_mismatch = true;
      }
      if (peak >= full_bytes) {
        std::printf("BUG: stream peak %zu B not below full materialization %zu B\n", peak,
                    full_bytes);
        checksum_mismatch = true;
      }
    }
  }

  // -- raw unpack kernels: ns/element of one large packed raster -----------
  // The binary row is the legacy layout every sub-byte kernel competes with
  // (acceptance: byte-parallel 2-bit decode must not be slower).
  {
    const std::size_t kT = 256;
    const std::size_t kC = 704;
    const std::size_t elements = kT * kC;
    const std::size_t kernel_reps = std::max<std::size_t>(reps * 40, 100);
    const data::SpikeRaster big = random_raster(kT, kC, 0.2, 99);
    // Binary layout via pack(): the legacy scalar decode first (yardstick),
    // then the byte-parallel kernel.
    {
      const compress::PackedRaster packed = compress::pack(big);
      data::SpikeRaster out;
      std::vector<double> scalar_walls;
      for (std::size_t rep = 0; rep < kernel_reps; ++rep) {
        Stopwatch watch;
        scalar_unpack(packed, out);
        scalar_walls.push_back(watch.elapsed_ms());
      }
      const CodecCase scalar_case{"binary-scalar", {.ratio = 1, .latent_bits = 0}};
      add_row("kernel", scalar_case, "-", -1,
              median(scalar_walls) * 1e6 / static_cast<double>(elements), elements, 0,
              out.spike_count());
      std::vector<double> walls;
      for (std::size_t rep = 0; rep < kernel_reps; ++rep) {
        Stopwatch watch;
        compress::unpack_into(packed, out);
        walls.push_back(watch.elapsed_ms());
      }
      const CodecCase binary{"binary", {.ratio = 1, .latent_bits = 0}};
      add_row("kernel", binary, "-", -1,
              median(walls) * 1e6 / static_cast<double>(elements), elements, 0,
              out.spike_count());
    }
    // Sub-byte element layouts via pack_elements/unpack_elements.
    for (const unsigned bits : {2u, 4u, 8u}) {
      std::vector<std::uint8_t> values(elements);
      Rng rng(5);
      for (auto& v : values) {
        v = static_cast<std::uint8_t>(rng.uniform_index(1u << bits));
      }
      const compress::PackedRaster packed = compress::pack_elements(values, kT, kC, bits);
      std::vector<std::uint8_t> out;
      std::vector<double> walls;
      std::uint64_t checksum = 0;
      for (std::size_t rep = 0; rep < kernel_reps; ++rep) {
        Stopwatch watch;
        compress::unpack_elements_into(packed, out);
        walls.push_back(watch.elapsed_ms());
      }
      for (const std::uint8_t v : out) checksum += v;
      CodecCase kernel_case{"elements", {.ratio = 1}};
      kernel_case.codec.latent_bits = static_cast<std::uint8_t>(bits);
      add_row("kernel", kernel_case, "-", -1,
              median(walls) * 1e6 / static_cast<double>(elements), elements, 0, checksum);
    }
  }

  bench::emit(table, "replay_stream_latency",
              "Streaming replay assembly: sample() vs ReplayStream wall-clock and peak "
              "bytes (codec x latent_bits x minibatch) plus raw unpack-kernel rates");
  return checksum_mismatch ? 1 : 0;
}
