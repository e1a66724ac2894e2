#include "snn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace r4ncl::snn {

namespace {
constexpr std::uint32_t kLayerTag = make_tag("LAYR");

/// "6x2x3" (or "empty") — shape spelling for the backward cache diagnostics.
std::string shape_str(const Tensor& t) {
  std::string s;
  for (std::size_t i = 0; i < t.rank(); ++i) {
    if (i > 0) s += 'x';
    s += std::to_string(t.dim(i));
  }
  return s.empty() ? "empty" : s;
}

/// A backward pass reads cache cubes as (T × B × N) with raw pointers, so a
/// cache from another batch size or width must fail here, not read past it.
void check_cache_cube(const Tensor& t, const char* name, std::size_t T, std::size_t B,
                      std::size_t N) {
  R4NCL_CHECK(t.rank() == 3 && t.dim(0) == T && t.dim(1) == B && t.dim(2) == N,
              "cache " << name << " is " << shape_str(t) << ", this pass is " << T << "x" << B
                       << "x" << N);
}
void check_input(const Tensor& x, std::size_t n_in) {
  R4NCL_CHECK(x.rank() == 3, "input must be (T × B × n_in)");
  R4NCL_CHECK(x.dim(2) == n_in, "input feature dim " << x.dim(2) << " != " << n_in);
}
}  // namespace

RecurrentLifLayer::RecurrentLifLayer(std::size_t n_in, std::size_t n_out, const LifParams& lif,
                                     const SurrogateParams& surrogate, Rng& rng, float gain,
                                     float rec_gain)
    : n_in_(n_in),
      n_out_(n_out),
      lif_(lif),
      surrogate_(surrogate),
      w_ff_(n_in, n_out),
      w_rec_(lif.recurrent ? n_out : 0, lif.recurrent ? n_out : 0),
      d_w_ff_(n_in, n_out),
      d_w_rec_(lif.recurrent ? n_out : 0, lif.recurrent ? n_out : 0) {
  R4NCL_CHECK(n_in > 0 && n_out > 0, "layer dims must be positive");
  w_ff_.fill_normal(rng, gain / std::sqrt(static_cast<float>(n_in)));
  if (lif_.recurrent) {
    w_rec_.fill_normal(rng, rec_gain / std::sqrt(static_cast<float>(n_out)));
  }
}

Tensor RecurrentLifLayer::forward(const Tensor& x, SpikeMode mode,
                                  const ThresholdPolicy& policy, LayerCache* cache,
                                  SpikeOpStats* stats) const {
  // Hard mode goes event-driven: one scan of x builds the active-channel
  // lists (the same traffic the dense path's per-timestep count_nonzero
  // stats rescan used to cost), then every timestep does O(events·n_out)
  // work.  Soft mode (gradcheck) keeps the dense kernels.
  if (mode == SpikeMode::kSoft) return forward_dense(x, mode, policy, cache, stats);
  check_input(x, n_in_);
  return forward_sparse(compress::events_from_batch(x), policy, cache, stats);
}

Tensor RecurrentLifLayer::forward_events(const compress::BatchEventList& events, SpikeMode mode,
                                         const ThresholdPolicy& policy,
                                         SpikeOpStats* stats) const {
  R4NCL_CHECK(mode == SpikeMode::kHard, "event-driven forward is hard-mode only");
  R4NCL_CHECK(events.channels == n_in_,
              "event-list channel count " << events.channels << " != " << n_in_);
  return forward_sparse(events, policy, nullptr, stats);
}

Tensor RecurrentLifLayer::forward_sparse(const compress::BatchEventList& events,
                                         const ThresholdPolicy& policy, LayerCache* cache,
                                         SpikeOpStats* stats) const {
  const std::size_t T = events.timesteps, B = events.batch;
  Tensor out(T, B, n_out_);
  Tensor v(B, n_out_);        // current membrane
  Tensor prev_s(B, n_out_);   // S(t−1)
  Tensor current(B, n_out_);  // I(t)
  if (cache != nullptr) {
    cache->membrane = Tensor(T, B, n_out_);
    cache->spikes = Tensor(T, B, n_out_);
    cache->theta.assign(T, policy.fixed_value);
  }

  ThresholdState th(policy);
  float theta_prev = policy.fixed_value;
  const std::size_t bn = B * n_out_;

  // Fixed threshold: θ(t) never depends on the batch's spike counts, so the
  // rows are fully independent — each batch row runs its entire T-step
  // sequence on one thread (one parallel dispatch per pass instead of one
  // per timestep, and row state stays hot in cache).  The per-(b, t) FP op
  // sequence is exactly the per-timestep loop below, so the output is
  // bit-identical to it (and to the dense kernel) at any thread count.
  if (policy.mode == ThresholdMode::kFixed) {
    // Everything the inner loops touch is hoisted into locals: member and
    // vector accesses through `this`/`events` would otherwise defeat the
    // auto-vectorizer (a float store could alias lif_.beta).
    const float theta = policy.fixed_value;
    const std::size_t N = n_out_;
    const float beta = lif_.beta;
    const bool recurrent = lif_.recurrent;
    const float* wff = w_ff_.raw();
    const float* wrec = recurrent ? w_rec_.raw() : nullptr;
    const std::uint32_t* offs = events.offsets.data();
    const std::uint32_t* chan = events.channel.data();
    const float* val = events.value.data();
    const bool unit = events.unit_values;
    float* outp = out.raw();
    float* cmem = cache != nullptr ? cache->membrane.raw() : nullptr;
    float* cspk = cache != nullptr ? cache->spikes.raw() : nullptr;
    std::vector<std::uint32_t> rec_idx(recurrent ? bn : 0);
    std::vector<std::size_t> row_total(B, 0);  // spikes over all T
    std::vector<std::size_t> row_last(B, 0);   // spikes at t = T−1
    const std::vector<float> zero_row(N, 0.0f);  // S(−1)
    parallel_for(
        0, B,
        [&](std::size_t b) {
          float* vrow = v.raw() + b * N;
          float* crow = current.raw() + b * N;
          std::uint32_t* ridx = recurrent ? rec_idx.data() + b * N : nullptr;
          std::uint32_t rn = 0;
          std::size_t total = 0, last = 0;
          for (std::size_t t = 0; t < T; ++t) {
            std::fill(crow, crow + N, 0.0f);
            const std::size_t lo = offs[t * B + b], hi = offs[t * B + b + 1];
            if (unit) {
              for (std::size_t e = lo; e < hi; ++e) {
                const float* wrow = wff + chan[e] * N;
                for (std::size_t j = 0; j < N; ++j) crow[j] += wrow[j];
              }
            } else {
              for (std::size_t e = lo; e < hi; ++e) {
                const float av = val[e];
                const float* wrow = wff + chan[e] * N;
                for (std::size_t j = 0; j < N; ++j) crow[j] += av * wrow[j];
              }
            }
            if (recurrent && t > 0) {
              for (std::uint32_t e = 0; e < rn; ++e) {
                const float* wrow = wrec + ridx[e] * N;
                for (std::size_t j = 0; j < N; ++j) crow[j] += wrow[j];
              }
            }
            // S(t−1) is row b of the previous output slab — no prev_s copy.
            const float* srow_prev =
                t > 0 ? outp + ((t - 1) * B + b) * N : zero_row.data();
            float* srow_out = outp + (t * B + b) * N;
            // Membrane update + spike emission, branch-free over j so it
            // vectorizes; the select equals hard_spike(vt − θ) exactly.
            for (std::size_t j = 0; j < N; ++j) {
              const float vt = beta * vrow[j] - theta * srow_prev[j] + crow[j];
              vrow[j] = vt;
              srow_out[j] = vt - theta > 0.0f ? 1.0f : 0.0f;
            }
            // Spike-index/count scan, kept out of the arithmetic loop above
            // so its data-dependent branch cannot block vectorization.
            std::size_t count = 0;
            if (ridx != nullptr) {
              for (std::size_t j = 0; j < N; ++j) {
                if (srow_out[j] != 0.0f) ridx[count++] = static_cast<std::uint32_t>(j);
              }
            } else {
              for (std::size_t j = 0; j < N; ++j) count += srow_out[j] != 0.0f ? 1u : 0u;
            }
            rn = static_cast<std::uint32_t>(count);
            total += count;
            if (t + 1 == T) last = count;
            if (cmem != nullptr) {
              std::copy(vrow, vrow + N, cmem + (t * B + b) * N);
              std::copy(srow_out, srow_out + N, cspk + (t * B + b) * N);
            }
          }
          row_total[b] = total;
          row_last[b] = last;
        },
        T * n_out_ * 4);
    if (stats != nullptr) {
      // Fixed-order reduction over rows (integer sums, but keep row order
      // anyway).  ff synops = every event × n_out; recurrent synops at step
      // t charge the spikes of step t−1, i.e. all spikes except t = T−1's.
      std::size_t spike_total = 0, rec_events = 0;
      for (std::size_t b = 0; b < B; ++b) {
        spike_total += row_total[b];
        rec_events += row_total[b] - row_last[b];
      }
      stats->synops += static_cast<std::uint64_t>(events.num_events()) * n_out_;
      if (lif_.recurrent) {
        stats->synops += static_cast<std::uint64_t>(rec_events) * n_out_;
      }
      stats->neuron_updates += static_cast<std::uint64_t>(T) * bn;
      stats->spikes += spike_total;
      stats->timestep_slots += static_cast<std::uint64_t>(T) * B;
    }
    return out;
  }

  // Output spikes double as the next step's recurrent *events*: each row
  // records its spike indices while it computes them, so the recurrent
  // matmul is event-driven too (hard-mode spikes are exactly 1.0f, and the
  // indices are ascending — the dense kernel's accumulation order).
  std::vector<std::uint32_t> rec_idx(lif_.recurrent ? bn : 0);
  std::vector<std::uint32_t> rec_len(lif_.recurrent ? B : 0, 0);
  std::vector<std::size_t> row_spikes(B, 0);
  std::size_t prev_spike_total = 0;  // spikes at t−1 = this step's recurrent events

  for (std::size_t t = 0; t < T; ++t) {
    const float theta_t = th.threshold_at(static_cast<int>(t));

    // Per batch row: event-driven I(t), membrane update, spike emission and
    // next-step recurrent event recording.  Rows write disjoint slices, so
    // any thread count produces identical bits; the per-row grain keeps tiny
    // layers serial (parallel_for's 2048-element floor).
    parallel_for(
        0, B,
        [&](std::size_t b) {
          float* crow = current.raw() + b * n_out_;
          std::fill(crow, crow + n_out_, 0.0f);
          // I(t) = X(t)·W_ff: accumulate the weight row of every active
          // input channel, ascending — bit-identical to kernels::matmul's
          // zero-skipping k loop over the dense slab.
          const std::size_t lo = events.row_begin(t, b), hi = events.row_end(t, b);
          if (events.unit_values) {
            for (std::size_t e = lo; e < hi; ++e) {
              const float* wrow = w_ff_.raw() + events.channel[e] * n_out_;
              for (std::size_t j = 0; j < n_out_; ++j) crow[j] += wrow[j];
            }
          } else {
            for (std::size_t e = lo; e < hi; ++e) {
              const float av = events.value[e];
              const float* wrow = w_ff_.raw() + events.channel[e] * n_out_;
              for (std::size_t j = 0; j < n_out_; ++j) crow[j] += av * wrow[j];
            }
          }
          // I(t) += S(t−1)·W_rec over last step's recorded spike indices.
          if (lif_.recurrent && t > 0) {
            const std::uint32_t* ridx = rec_idx.data() + b * n_out_;
            const std::uint32_t rn = rec_len[b];
            for (std::uint32_t e = 0; e < rn; ++e) {
              const float* wrow = w_rec_.raw() + ridx[e] * n_out_;
              for (std::size_t j = 0; j < n_out_; ++j) crow[j] += wrow[j];
            }
          }
          // V(t) = β·V(t−1) − θ(t−1)·S(t−1) + I(t);  S(t) = Θ(V(t) − θ(t))
          float* vrow = v.raw() + b * n_out_;
          const float* srow_prev = prev_s.raw() + b * n_out_;
          float* srow_out = out.slab(t).data() + b * n_out_;
          std::uint32_t* ridx_out = lif_.recurrent ? rec_idx.data() + b * n_out_ : nullptr;
          std::size_t count = 0;
          for (std::size_t j = 0; j < n_out_; ++j) {
            const float vt = lif_.beta * vrow[j] - theta_prev * srow_prev[j] + crow[j];
            vrow[j] = vt;
            const float s = hard_spike(vt - theta_t);
            srow_out[j] = s;
            if (s != 0.0f) {
              if (ridx_out != nullptr) ridx_out[count] = static_cast<std::uint32_t>(j);
              ++count;
            }
          }
          if (lif_.recurrent) rec_len[b] = static_cast<std::uint32_t>(count);
          row_spikes[b] = count;
        },
        n_out_ * 4);

    // Fixed-order reduction of the per-row spike counts (row 0 first) keeps
    // the adaptive-threshold observation identical across thread counts.
    std::size_t spike_count = 0;
    for (std::size_t b = 0; b < B; ++b) spike_count += row_spikes[b];
    th.observe(static_cast<int>(t), spike_count);

    const float* sp_out = out.slab(t).data();
    if (cache != nullptr) {
      std::copy(v.raw(), v.raw() + bn, cache->membrane.slab(t).data());
      std::copy(sp_out, sp_out + bn, cache->spikes.slab(t).data());
      cache->theta[t] = theta_t;
    }
    if (stats != nullptr) {
      // Synop stats fall straight out of the event list — the counts the
      // dense path re-derived with a count_nonzero rescan of every slab.
      stats->synops += static_cast<std::uint64_t>(events.events_in_timestep(t)) * n_out_;
      if (lif_.recurrent && t > 0) {
        stats->synops += static_cast<std::uint64_t>(prev_spike_total) * n_out_;
      }
      stats->neuron_updates += bn;
      stats->spikes += spike_count;
      stats->timestep_slots += B;
    }

    std::copy(sp_out, sp_out + bn, prev_s.raw());
    theta_prev = theta_t;
    prev_spike_total = spike_count;
  }
  return out;
}

Tensor RecurrentLifLayer::forward_dense(const Tensor& x, SpikeMode mode,
                                        const ThresholdPolicy& policy, LayerCache* cache,
                                        SpikeOpStats* stats) const {
  check_input(x, n_in_);
  const std::size_t T = x.dim(0), B = x.dim(1);

  Tensor out(T, B, n_out_);
  Tensor v(B, n_out_);        // current membrane
  Tensor prev_s(B, n_out_);   // S(t−1)
  Tensor current(B, n_out_);  // I(t)
  if (cache != nullptr) {
    cache->membrane = Tensor(T, B, n_out_);
    cache->spikes = Tensor(T, B, n_out_);
    cache->theta.assign(T, policy.fixed_value);
  }

  ThresholdState th(policy);
  float theta_prev = policy.fixed_value;  // θ used for the (empty) step −1 reset
  const std::size_t bn = B * n_out_;

  for (std::size_t t = 0; t < T; ++t) {
    const float theta_t = th.threshold_at(static_cast<int>(t));

    // I(t) = X(t)·W_ff (+ S(t−1)·W_rec)
    kernels::matmul(x.slab(t).data(), B, n_in_, w_ff_.raw(), n_out_, current.raw(), false);
    if (lif_.recurrent && t > 0) {
      kernels::matmul(prev_s.raw(), B, n_out_, w_rec_.raw(), n_out_, current.raw(), true);
    }

    // V(t) = β·V(t−1) − θ(t−1)·S(t−1) + I(t);  S(t) = spike(V(t) − θ(t))
    float* vp = v.raw();
    const float* ip = current.raw();
    const float* sp_prev = prev_s.raw();
    float* sp_out = out.slab(t).data();
    std::size_t spike_count = 0;
    for (std::size_t i = 0; i < bn; ++i) {
      const float vt = lif_.beta * vp[i] - theta_prev * sp_prev[i] + ip[i];
      vp[i] = vt;
      const float u = vt - theta_t;
      const float s = mode == SpikeMode::kHard ? hard_spike(u) : soft_spike(u, surrogate_);
      sp_out[i] = s;
      if (s != 0.0f) ++spike_count;
    }
    th.observe(static_cast<int>(t), spike_count);

    if (cache != nullptr) {
      std::copy(vp, vp + bn, cache->membrane.slab(t).data());
      std::copy(sp_out, sp_out + bn, cache->spikes.slab(t).data());
      cache->theta[t] = theta_t;
    }
    if (stats != nullptr) {
      const std::size_t in_events = kernels::count_nonzero(x.slab(t).data(), B * n_in_);
      stats->synops += static_cast<std::uint64_t>(in_events) * n_out_;
      if (lif_.recurrent && t > 0) {
        const std::size_t rec_events = kernels::count_nonzero(sp_prev, bn);
        stats->synops += static_cast<std::uint64_t>(rec_events) * n_out_;
      }
      stats->neuron_updates += bn;
      stats->spikes += spike_count;
      stats->timestep_slots += B;
    }

    std::copy(sp_out, sp_out + bn, prev_s.raw());
    theta_prev = theta_t;
  }
  return out;
}

void RecurrentLifLayer::backward(const Tensor& x, const LayerCache& cache, const Tensor& d_out,
                                 Tensor* d_in, SpikeOpStats* stats) {
  R4NCL_CHECK(x.rank() == 3 && d_out.rank() == 3, "x and d_out must be 3-D");
  const std::size_t T = x.dim(0), B = x.dim(1), N = n_out_;
  R4NCL_CHECK(x.dim(2) == n_in_, "backward input feature dim " << x.dim(2) << " != " << n_in_);
  R4NCL_CHECK(d_out.dim(0) == T && d_out.dim(1) == B && d_out.dim(2) == N,
              "d_out shape mismatch");
  check_cache_cube(cache.membrane, "membrane", T, B, N);
  check_cache_cube(cache.spikes, "spikes", T, B, N);
  R4NCL_CHECK(cache.theta.size() == T,
              "cache theta has " << cache.theta.size() << " steps, this pass has " << T);
  if (d_in != nullptr) {
    R4NCL_CHECK(d_in->same_shape(x), "d_in shape mismatch");
  }

  // ∂L/∂V(t) for every step: the recurrence writes it, the hoisted weight-
  // and input-gradient passes read it.
  Tensor d_v(T, B, N);
  Tensor d_s_rec(B, N);  // per row: recurrent + reset contribution to ∂L/∂S(t−1)
  const bool recurrent = lif_.recurrent;
  Tensor w_rec_t(recurrent ? N : 0, recurrent ? N : 0);  // W_recᵀ, for i-k-j dV·W_recᵀ
  if (recurrent) kernels::transpose(w_rec_.raw(), N, N, w_rec_t.raw());

  // The BPTT recurrence, row-parallel: θ(t) comes from the cache, so batch
  // rows are independent under fixed and adaptive thresholds alike, and each
  // row walks all T steps on one thread.  Per element the FP ops are the
  // per-timestep loop's, in its order:
  //   ∂L/∂S(t) = upstream + d_s_rec;  ∂L/∂V(t) = ∂L/∂S(t)·Θ′(u) + β·∂L/∂V(t+1)
  //   d_s_rec  = ∂L/∂V(t)·W_recᵀ (k ascending) [− θ(t−1)·∂L/∂V(t) unless detached]
  // Locals keep member loads out of the inner loops.
  const float beta = lif_.beta;
  const bool detach_reset = lif_.detach_reset;
  const SurrogateParams surrogate = surrogate_;
  const float* up = d_out.raw();
  const float* vmem = cache.membrane.raw();
  const float* theta = cache.theta.data();
  const float* wrec_t = w_rec_t.raw();
  float* dvp = d_v.raw();
  float* recp = d_s_rec.raw();
  const std::vector<float> zero_row(N, 0.0f);  // ∂L/∂V(T)
  parallel_for(
      0, B,
      [&](std::size_t b) {
        float* rec = recp + b * N;
        for (std::size_t t = T; t-- > 0;) {
          const std::size_t row = (t * B + b) * N;
          float* dv = dvp + row;
          const float* dv_next = t + 1 < T ? dv + B * N : zero_row.data();
          const float theta_t = theta[t];
          for (std::size_t j = 0; j < N; ++j) {
            const float ds = up[row + j] + rec[j];
            dv[j] = ds * surrogate_grad(vmem[row + j] - theta_t, surrogate) + beta * dv_next[j];
          }
          if (t == 0) break;
          std::fill(rec, rec + N, 0.0f);
          if (recurrent) kernels::matmul_row(dv, N, wrec_t, N, rec);
          if (!detach_reset) {
            // V(t) contains −θ(t−1)·S(t−1).
            const float theta_prev = theta[t - 1];
            for (std::size_t j = 0; j < N; ++j) rec[j] -= theta_prev * dv[j];
          }
        }
      },
      T * N * (recurrent ? N : 4));

  // Weight gradients, hoisted out of the T loop as one pass each over all
  // T·B rows in the per-timestep order (t descending, rows ascending):
  // dW_ff += Σ_t X(t)ᵀ·dV(t);  dW_rec += Σ_{t≥1} S(t−1)ᵀ·dV(t), i.e. spike
  // block i against dV block i+1.
  kernels::matmul_at_b_accum(x.raw(), dvp, T, B, n_in_, N, d_w_ff_.raw());
  if (recurrent && T > 1) {
    kernels::matmul_at_b_accum(cache.spikes.raw(), dvp + B * N, T - 1, B, N, N,
                               d_w_rec_.raw());
  }

  // Input gradient dX = dV·W_ffᵀ over all T·B rows against the transposed copy.
  if (d_in != nullptr) {
    Tensor w_ff_t(N, n_in_);
    kernels::transpose(w_ff_.raw(), n_in_, N, w_ff_t.raw());
    kernels::matmul(dvp, T * B, N, w_ff_t.raw(), n_in_, d_in->raw(), false);
  }

  if (stats != nullptr && T > 0) {
    // dW_ff (+ dX) charge B·n_in·n_out per step; dW_rec and the dS_rec
    // product charge B·n_out² per step t ≥ 1.
    const std::uint64_t ff = static_cast<std::uint64_t>(T) * B * n_in_ * N;
    const std::uint64_t rec = recurrent ? static_cast<std::uint64_t>(T - 1) * B * N * N : 0;
    stats->backward_synops += (d_in != nullptr ? 2 : 1) * ff + 2 * rec;
  }
}

void RecurrentLifLayer::zero_grad() {
  d_w_ff_.zero();
  if (lif_.recurrent) d_w_rec_.zero();
}

void RecurrentLifLayer::save(BinaryWriter& out) const {
  out.write_tag(kLayerTag);
  out.write_u64(n_in_);
  out.write_u64(n_out_);
  out.write_f32(lif_.beta);
  out.write_u32(lif_.detach_reset ? 1 : 0);
  out.write_u32(lif_.recurrent ? 1 : 0);
  out.write_u32(static_cast<std::uint32_t>(surrogate_.kind));
  out.write_f32(surrogate_.scale);
  out.write_f32_vector({w_ff_.values().begin(), w_ff_.values().end()});
  out.write_f32_vector({w_rec_.values().begin(), w_rec_.values().end()});
}

void RecurrentLifLayer::load(BinaryReader& in) {
  in.expect_tag(kLayerTag);
  const std::size_t n_in = in.read_u64();
  const std::size_t n_out = in.read_u64();
  R4NCL_CHECK(n_in == n_in_ && n_out == n_out_,
              "checkpoint layer is " << n_in << "x" << n_out << ", expected " << n_in_ << "x"
                                     << n_out_);
  lif_.beta = in.read_f32();
  lif_.detach_reset = in.read_u32() != 0;
  const bool recurrent = in.read_u32() != 0;
  R4NCL_CHECK(recurrent == lif_.recurrent, "checkpoint recurrence mismatch");
  surrogate_.kind = static_cast<SurrogateKind>(in.read_u32());
  surrogate_.scale = in.read_f32();
  const auto ff = in.read_f32_vector();
  R4NCL_CHECK(ff.size() == w_ff_.size(), "w_ff size mismatch");
  std::copy(ff.begin(), ff.end(), w_ff_.values().begin());
  const auto rec = in.read_f32_vector();
  R4NCL_CHECK(rec.size() == w_rec_.size(), "w_rec size mismatch");
  std::copy(rec.begin(), rec.end(), w_rec_.values().begin());
}

}  // namespace r4ncl::snn
