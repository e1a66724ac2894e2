// google-benchmark micro-benchmarks of the hot kernels: dense matmul, the
// LIF layer step, spike codec, bit-packing, and the synthetic generator.
// These bound the substrate's throughput and document the event-driven
// sparsity speedup the cost models assume.
#include <benchmark/benchmark.h>

#include "compress/spike_codec.hpp"
#include "core/experiment.hpp"
#include "data/shd_synth.hpp"
#include "snn/layer.hpp"
#include "snn/readout.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace r4ncl;

Tensor random_dense(std::size_t r, std::size_t c, std::uint64_t seed) {
  Tensor t(r, c);
  Rng rng(seed);
  for (auto& v : t.values()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

void BM_MatmulDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_dense(16, n, 1);
  const Tensor b = random_dense(n, n / 2, 2);
  Tensor c(16, n / 2);
  for (auto _ : state) {
    matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 16 * n * (n / 2));
}
BENCHMARK(BM_MatmulDense)->Arg(128)->Arg(256)->Arg(700);

void BM_LifLayerForward(benchmark::State& state) {
  const auto T = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  snn::RecurrentLifLayer layer(700, 200, snn::LifParams{}, snn::SurrogateParams{}, rng);
  Tensor x(T, 8, 700);
  Rng data(6);
  for (auto& v : x.values()) v = data.bernoulli(0.05) ? 1.0f : 0.0f;
  const auto policy = snn::ThresholdPolicy::fixed(1.0f);
  for (auto _ : state) {
    Tensor out = layer.forward(x, snn::SpikeMode::kHard, policy, nullptr, nullptr);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(state.iterations() * T * 8);
}
BENCHMARK(BM_LifLayerForward)->Arg(20)->Arg(40)->Arg(100);

void BM_LifLayerBackward(benchmark::State& state) {
  const auto T = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  snn::RecurrentLifLayer layer(200, 100, snn::LifParams{}, snn::SurrogateParams{}, rng);
  Tensor x(T, 8, 200);
  Rng data(8);
  for (auto& v : x.values()) v = data.bernoulli(0.08) ? 1.0f : 0.0f;
  const auto policy = snn::ThresholdPolicy::fixed(1.0f);
  snn::LayerCache cache;
  (void)layer.forward(x, snn::SpikeMode::kHard, policy, &cache, nullptr);
  Tensor d_out(T, 8, 100);
  d_out.fill(0.01f);
  Tensor d_in(T, 8, 200);
  for (auto _ : state) {
    layer.zero_grad();
    layer.backward(x, cache, d_out, &d_in, nullptr);
    benchmark::DoNotOptimize(d_in.raw());
  }
  state.SetItemsProcessed(state.iterations() * T * 8);
}
BENCHMARK(BM_LifLayerBackward)->Arg(40)->Arg(100);

void BM_AdaptiveThresholdOverhead(benchmark::State& state) {
  // Same layer pass with the Alg. 1 controller active: its cost must be
  // negligible next to the matmuls.
  Rng rng(9);
  snn::RecurrentLifLayer layer(700, 200, snn::LifParams{}, snn::SurrogateParams{}, rng);
  Tensor x(40, 8, 700);
  Rng data(10);
  for (auto& v : x.values()) v = data.bernoulli(0.05) ? 1.0f : 0.0f;
  const auto policy = snn::ThresholdPolicy::adaptive(40);
  for (auto _ : state) {
    Tensor out = layer.forward(x, snn::SpikeMode::kHard, policy, nullptr, nullptr);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(state.iterations() * 40 * 8);
}
BENCHMARK(BM_AdaptiveThresholdOverhead);

void BM_CodecCompress(benchmark::State& state) {
  Rng rng(11);
  data::SpikeRaster r(100, 200);
  for (auto& b : r.bits) b = rng.bernoulli(0.1) ? 1 : 0;
  const compress::CodecConfig cfg{.ratio = 2};
  for (auto _ : state) {
    auto packed = compress::compress_packed(r, cfg);
    benchmark::DoNotOptimize(packed.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(r.bits.size()));
}
BENCHMARK(BM_CodecCompress);

void BM_CodecDecompress(benchmark::State& state) {
  Rng rng(12);
  data::SpikeRaster r(100, 200);
  for (auto& b : r.bits) b = rng.bernoulli(0.1) ? 1 : 0;
  const compress::CodecConfig cfg{.ratio = 2};
  const auto packed = compress::compress_packed(r, cfg);
  data::SpikeRaster out;
  std::vector<std::uint8_t> levels;
  for (auto _ : state) {
    compress::decompress_packed_into(packed, 100, cfg, out, &levels);
    benchmark::DoNotOptimize(out.bits.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(r.bits.size()));
}
BENCHMARK(BM_CodecDecompress);

void BM_BitpackRoundTrip(benchmark::State& state) {
  Rng rng(13);
  data::SpikeRaster r(40, 200);
  for (auto& b : r.bits) b = rng.bernoulli(0.1) ? 1 : 0;
  std::vector<std::uint8_t> back;
  for (auto _ : state) {
    auto packed = compress::pack_elements(r.bits, r.timesteps, r.channels, 1);
    compress::unpack_elements_into(packed, back);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(r.bits.size()));
}
BENCHMARK(BM_BitpackRoundTrip);

void BM_ShdSampleGeneration(benchmark::State& state) {
  const data::SyntheticShdGenerator gen(data::ShdSynthParams{});
  Rng rng(14);
  for (auto _ : state) {
    auto s = gen.make_sample(3, rng);
    benchmark::DoNotOptimize(s.raster.bits.data());
  }
}
BENCHMARK(BM_ShdSampleGeneration);

}  // namespace

int main(int argc, char** argv) {
  r4ncl::core::init_runtime(r4ncl::Config{});  // R4NCL_THREADS, R4NCL_LOG
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
