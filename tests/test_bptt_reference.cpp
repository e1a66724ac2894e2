// Reference identity for the row-parallel, time-hoisted BPTT kernels.
//
// The references below are the per-timestep implementations the hoisted
// kernels replaced, kept verbatim (members spelled through the public
// accessors): RecurrentLifLayer::backward, LeakyReadout::forward/backward and
// the two kernels they called.  Every output element of the hoisted code must
// equal them bit for bit — weight gradients, ∂L/∂X, logits and SpikeOpStats —
// over recurrent × detach_reset × fixed/adaptive θ × hard/soft mode × d_in
// null/set × threads 1/4; the layer also over B ∈ {1, 5, 6, 9} × N ∈ {48, 50}
// (B = 1 is fewer rows than threads; B = 5 and 9 leave a one-row tile after
// the recurrence's 4-row tiles; N = 50, ncl_stream's learning layer, leaves
// scalar columns after matmul_rows' 8-wide strips) and the readout over
// B ∈ {1, 6}.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "snn/layer.hpp"
#include "snn/readout.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl::snn {
namespace {

// -- per-timestep reference kernels -------------------------------------------

/// c[k×n] += aᵀ[k×m] · b[m×n] (a given as m×k).
void ref_matmul_at_b_accum(const float* a, std::size_t m, std::size_t k, const float* b,
                           std::size_t n, float* c) {
  parallel_for(
      0, k,
      [&](std::size_t kk) {
        float* crow = c + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
          const float av = a[i * k + kk];
          if (av == 0.0f) continue;
          const float* brow = b + i * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      },
      m * n);
}

/// c[m×k] = a[m×n] · bᵀ[n×k] (b given as k×n); accumulates when `accumulate`.
void ref_matmul_a_bt(const float* a, std::size_t m, std::size_t n, const float* b, std::size_t k,
                     float* c, bool accumulate) {
  parallel_for(
      0, m,
      [&](std::size_t i) {
        const float* arow = a + i * n;
        float* crow = c + i * k;
        for (std::size_t j = 0; j < k; ++j) {
          const float* brow = b + j * n;
          float acc = 0.0f;
          for (std::size_t t = 0; t < n; ++t) acc += arow[t] * brow[t];
          crow[j] = accumulate ? crow[j] + acc : acc;
        }
      },
      n * k);
}

// -- per-timestep reference passes --------------------------------------------

void reference_layer_backward(RecurrentLifLayer& layer, const Tensor& x, const LayerCache& cache,
                              const Tensor& d_out, Tensor* d_in, SpikeOpStats* stats) {
  const std::size_t n_in_ = layer.n_in(), n_out_ = layer.n_out();
  const LifParams& lif_ = layer.lif();
  const SurrogateParams& surrogate_ = layer.surrogate();
  const Tensor& w_ff_ = layer.w_ff();
  const Tensor& w_rec_ = layer.w_rec();
  Tensor& d_w_ff_ = layer.grad_w_ff();
  Tensor& d_w_rec_ = layer.grad_w_rec();
  const std::size_t T = x.dim(0), B = x.dim(1);

  Tensor d_v(B, n_out_);       // ∂L/∂V(t+1), carried across iterations
  Tensor d_s_rec(B, n_out_);   // recurrent + reset contribution to ∂L/∂S(t)
  Tensor d_s_total(B, n_out_); // scratch
  std::uint64_t bwd_ops = 0;

  for (std::size_t ti = T; ti-- > 0;) {
    const float* up = d_out.slab(ti).data();
    const float* rec = d_s_rec.raw();
    float* ds = d_s_total.raw();
    const float* vcache = cache.membrane.slab(ti).data();
    const float theta_t = cache.theta[ti];
    float* dv = d_v.raw();
    parallel_for(
        0, B,
        [&](std::size_t b) {
          const std::size_t lo = b * n_out_, hi = lo + n_out_;
          for (std::size_t i = lo; i < hi; ++i) ds[i] = up[i] + rec[i];
          for (std::size_t i = lo; i < hi; ++i) {
            const float u = vcache[i] - theta_t;
            dv[i] = ds[i] * surrogate_grad(u, surrogate_) + lif_.beta * dv[i];
          }
        },
        n_out_ * 2);

    ref_matmul_at_b_accum(x.slab(ti).data(), B, n_in_, dv, n_out_, d_w_ff_.raw());
    bwd_ops += static_cast<std::uint64_t>(B) * n_in_ * n_out_;
    if (lif_.recurrent && ti > 0) {
      ref_matmul_at_b_accum(cache.spikes.slab(ti - 1).data(), B, n_out_, dv, n_out_,
                            d_w_rec_.raw());
      bwd_ops += static_cast<std::uint64_t>(B) * n_out_ * n_out_;
    }

    if (d_in != nullptr) {
      ref_matmul_a_bt(dv, B, n_out_, w_ff_.raw(), n_in_, d_in->slab(ti).data(), false);
      bwd_ops += static_cast<std::uint64_t>(B) * n_in_ * n_out_;
    }

    if (ti > 0) {
      if (lif_.recurrent) {
        ref_matmul_a_bt(dv, B, n_out_, w_rec_.raw(), n_out_, d_s_rec.raw(), false);
        bwd_ops += static_cast<std::uint64_t>(B) * n_out_ * n_out_;
      } else {
        d_s_rec.zero();
      }
      if (!lif_.detach_reset) {
        const float theta_prev = cache.theta[ti - 1];
        float* dsr = d_s_rec.raw();
        parallel_for(
            0, B,
            [&](std::size_t b) {
              const std::size_t lo = b * n_out_, hi = lo + n_out_;
              for (std::size_t i = lo; i < hi; ++i) dsr[i] -= theta_prev * dv[i];
            },
            n_out_);
      }
    }
  }
  if (stats != nullptr) stats->backward_synops += bwd_ops;
}

Tensor reference_readout_forward(const LeakyReadout& ro, const Tensor& x, SpikeOpStats* stats) {
  const std::size_t n_in_ = ro.n_in(), n_classes_ = ro.n_classes();
  const float beta_ = ro.beta();
  const Tensor& w_ = ro.w();
  const std::size_t T = x.dim(0), B = x.dim(1);
  Tensor logits(B, n_classes_);
  Tensor v(B, n_classes_);
  Tensor current(B, n_classes_);
  const std::size_t bc = B * n_classes_;
  for (std::size_t t = 0; t < T; ++t) {
    kernels::matmul(x.slab(t).data(), B, n_in_, w_.raw(), n_classes_, current.raw(), false);
    float* vp = v.raw();
    const float* ip = current.raw();
    float* lp = logits.raw();
    for (std::size_t i = 0; i < bc; ++i) {
      vp[i] = beta_ * vp[i] + ip[i];
      lp[i] += vp[i];
    }
    if (stats != nullptr) {
      const std::size_t events = kernels::count_nonzero(x.slab(t).data(), B * n_in_);
      stats->synops += static_cast<std::uint64_t>(events) * n_classes_;
      stats->neuron_updates += bc;
      stats->timestep_slots += B;
    }
  }
  const float inv_t = 1.0f / static_cast<float>(T);
  for (auto& l : logits.values()) l *= inv_t;
  return logits;
}

void reference_readout_backward(LeakyReadout& ro, const Tensor& x, const Tensor& d_logits,
                                Tensor* d_in, SpikeOpStats* stats) {
  const std::size_t n_in_ = ro.n_in(), n_classes_ = ro.n_classes();
  const float beta_ = ro.beta();
  const Tensor& w_ = ro.w();
  Tensor& d_w_ = ro.grad_w();
  const std::size_t T = x.dim(0), B = x.dim(1);
  Tensor c(B, n_classes_);
  const std::size_t bc = B * n_classes_;
  const float inv_t = 1.0f / static_cast<float>(T);
  std::uint64_t bwd_ops = 0;
  for (std::size_t ti = T; ti-- > 0;) {
    float* cp = c.raw();
    const float* gp = d_logits.raw();
    for (std::size_t i = 0; i < bc; ++i) cp[i] = gp[i] * inv_t + beta_ * cp[i];
    ref_matmul_at_b_accum(x.slab(ti).data(), B, n_in_, cp, n_classes_, d_w_.raw());
    bwd_ops += static_cast<std::uint64_t>(B) * n_in_ * n_classes_;
    if (d_in != nullptr) {
      ref_matmul_a_bt(cp, B, n_classes_, w_.raw(), n_in_, d_in->slab(ti).data(), false);
      bwd_ops += static_cast<std::uint64_t>(B) * n_in_ * n_classes_;
    }
  }
  if (stats != nullptr) stats->backward_synops += bwd_ops;
}

// -- fixtures ---------------------------------------------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  // Empty tensors (w_rec of a non-recurrent layer) have no storage to compare.
  return a.same_shape(b) &&
         (a.empty() || std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0);
}

/// Binary spikes at `density`, with graded values mixed in when `graded`
/// (soft-mode activations and latent insertions are not always 0/1).
Tensor random_cube(std::size_t T, std::size_t B, std::size_t C, double density, bool graded,
                   std::uint64_t seed) {
  Tensor x(T, B, C);
  Rng rng(seed);
  for (auto& v : x.values()) {
    if (!rng.bernoulli(density)) continue;
    v = graded && rng.bernoulli(0.5) ? static_cast<float>(rng.uniform(-0.5, 1.0)) : 1.0f;
  }
  return x;
}

/// Upstream gradient with exact zeros mixed in (dead rows of a real d_out).
Tensor random_grad(std::size_t T, std::size_t B, std::size_t N, std::uint64_t seed) {
  Tensor g(T, B, N);
  Rng rng(seed);
  for (auto& v : g.values()) {
    v = rng.bernoulli(0.3) ? 0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return g;
}

/// Restores the process-wide worker count when a test exits.
struct ThreadsGuard {
  ThreadsGuard() : saved(num_threads()) {}
  ~ThreadsGuard() { set_num_threads(saved); }
  int saved;
};

constexpr std::size_t kT = 12, kC = 40, kN = 48;

TEST(BpttReference, LayerBackwardMatchesPerTimestepKernels) {
  const ThreadsGuard guard;
  // One bit per axis of the matrix, 2^6 = 64 cases, at each of the 8 shapes.
  for (unsigned mask = 0; mask < 64 * 8; ++mask) {
    const bool recurrent = (mask & 1u) != 0;
    const bool detach_reset = (mask & 2u) != 0;
    const bool adaptive = (mask & 4u) != 0;
    const SpikeMode mode = (mask & 8u) != 0 ? SpikeMode::kSoft : SpikeMode::kHard;
    const bool with_d_in = (mask & 16u) != 0;
    const int threads = (mask & 32u) != 0 ? 4 : 1;
    const std::size_t B = std::array<std::size_t, 4>{1, 5, 6, 9}[(mask >> 6) & 3u];
    const std::size_t N = (mask & 256u) != 0 ? 50 : kN;
    SCOPED_TRACE(testing::Message() << "recurrent=" << recurrent << " detach_reset="
                                    << detach_reset << " adaptive=" << adaptive
                                    << " soft=" << (mode == SpikeMode::kSoft) << " d_in="
                                    << with_d_in << " threads=" << threads << " B=" << B
                                    << " N=" << N);
    LifParams lif;
    lif.recurrent = recurrent;
    lif.detach_reset = detach_reset;
    Rng rng_ref(31), rng_new(31);
    RecurrentLifLayer ref(kC, N, lif, SurrogateParams{}, rng_ref);
    RecurrentLifLayer hoisted(kC, N, lif, SurrogateParams{}, rng_new);
    const auto policy = adaptive ? ThresholdPolicy::adaptive(static_cast<int>(kT))
                                 : ThresholdPolicy::fixed(0.8f);
    const Tensor x = random_cube(kT, B, kC, 0.3, mode == SpikeMode::kSoft, 100 + B);
    const Tensor d_out = random_grad(kT, B, N, 101 + B);
    LayerCache cache;
    set_num_threads(1);
    (void)ref.forward(x, mode, policy, &cache, nullptr);
    if (adaptive) {
      ASSERT_NE(cache.theta.front(), cache.theta.back()) << "θ must move";
    }

    // Two passes each: the second accumulates onto live gradients.
    Tensor d_in_ref(kT, B, kC), d_in_new(kT, B, kC);
    SpikeOpStats stats_ref, stats_new;
    for (int pass = 0; pass < 2; ++pass) {
      set_num_threads(1);
      reference_layer_backward(ref, x, cache, d_out, with_d_in ? &d_in_ref : nullptr,
                               &stats_ref);
      set_num_threads(threads);
      hoisted.backward(x, cache, d_out, with_d_in ? &d_in_new : nullptr, &stats_new);
      EXPECT_TRUE(same_bits(ref.grad_w_ff(), hoisted.grad_w_ff())) << "pass " << pass;
      EXPECT_TRUE(same_bits(ref.grad_w_rec(), hoisted.grad_w_rec())) << "pass " << pass;
      EXPECT_TRUE(same_bits(d_in_ref, d_in_new)) << "pass " << pass;
      EXPECT_EQ(stats_ref, stats_new);
    }
  }
}

TEST(BpttReference, ReadoutMatchesPerTimestepKernels) {
  const ThreadsGuard guard;
  for (unsigned mask = 0; mask < 16; ++mask) {
    const bool graded = (mask & 1u) != 0;
    const bool with_d_in = (mask & 2u) != 0;
    const int threads = (mask & 4u) != 0 ? 4 : 1;
    const std::size_t B = (mask & 8u) != 0 ? 6 : 1;
    SCOPED_TRACE(testing::Message() << "graded=" << graded << " d_in=" << with_d_in
                                    << " threads=" << threads << " B=" << B);
    Rng rng_ref(41), rng_new(41);
    LeakyReadout ref(kN, 5, 0.9f, rng_ref);
    LeakyReadout hoisted(kN, 5, 0.9f, rng_new);
    const Tensor x = random_cube(kT, B, kN, 0.3, graded, 200 + B);
    Tensor d_logits(B, 5);
    Rng g(7);
    for (auto& v : d_logits.values()) v = static_cast<float>(g.uniform(-1.0, 1.0));

    SpikeOpStats stats_ref, stats_new;
    set_num_threads(1);
    const Tensor logits_ref = reference_readout_forward(ref, x, &stats_ref);
    set_num_threads(threads);
    const Tensor logits_new = hoisted.forward(x, &stats_new);
    EXPECT_TRUE(same_bits(logits_ref, logits_new));
    EXPECT_EQ(stats_ref, stats_new);

    Tensor d_in_ref(kT, B, kN), d_in_new(kT, B, kN);
    for (int pass = 0; pass < 2; ++pass) {
      set_num_threads(1);
      reference_readout_backward(ref, x, d_logits, with_d_in ? &d_in_ref : nullptr, &stats_ref);
      set_num_threads(threads);
      hoisted.backward(x, d_logits, with_d_in ? &d_in_new : nullptr, &stats_new);
      EXPECT_TRUE(same_bits(ref.grad_w(), hoisted.grad_w())) << "pass " << pass;
      EXPECT_TRUE(same_bits(d_in_ref, d_in_new)) << "pass " << pass;
      EXPECT_EQ(stats_ref, stats_new);
    }
  }
}

}  // namespace
}  // namespace r4ncl::snn
