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

using kernels::F32x4;

/// The events that drive one row's I(t): the step's input events
/// (chan[lo, hi), weighted by `val`, or by 1 when `val` is null) and the
/// previous step's spikes (indices rec[0, rn)).
struct RowEvents {
  const std::uint32_t* chan;
  const float* val;
  std::size_t lo, hi;
  const std::uint32_t* rec;
  std::size_t rn;
};

/// I(t) over columns [j, j + 4·V) of one row, summed in V registers and
/// stored once: +0, then the W_ff rows of the input events, then the W_rec
/// rows of the spikes, each in ascending index order — forward_dense's
/// per-element order (its kernels::matmul adds a ±0 product for every
/// silent channel between them, an exact no-op on these sums).
template <std::size_t V>
void current_strip(const RowEvents& ev, const float* wff, const float* wrec, std::size_t N,
                   std::size_t j, float* crow) noexcept {
  F32x4 acc[V] = {};
  for (std::size_t e = ev.lo; e < ev.hi; ++e) {
    const float* w = wff + ev.chan[e] * N + j;
    if (ev.val == nullptr) {
      for (std::size_t v = 0; v < V; ++v) acc[v] += kernels::load4(w + 4 * v);
    } else {
      const F32x4 av = kernels::splat4(ev.val[e]);
      for (std::size_t v = 0; v < V; ++v) acc[v] += av * kernels::load4(w + 4 * v);
    }
  }
  for (std::size_t e = 0; e < ev.rn; ++e) {
    const float* w = wrec + ev.rec[e] * N + j;
    for (std::size_t v = 0; v < V; ++v) acc[v] += kernels::load4(w + 4 * v);
  }
  for (std::size_t v = 0; v < V; ++v) kernels::store4(crow + j + 4 * v, acc[v]);
}

/// I(t) of one row: 16-wide register strips, then 4-wide ones, then scalar
/// columns, each element in current_strip's order.
void row_current(const RowEvents& ev, const float* wff, const float* wrec, std::size_t N,
                 float* crow) noexcept {
  std::size_t j = 0;
  for (; j + 16 <= N; j += 16) current_strip<4>(ev, wff, wrec, N, j, crow);
  for (; j + 4 <= N; j += 4) current_strip<1>(ev, wff, wrec, N, j, crow);
  for (; j < N; ++j) {
    float acc = 0.0f;
    for (std::size_t e = ev.lo; e < ev.hi; ++e) {
      const float w = wff[ev.chan[e] * N + j];
      acc += ev.val == nullptr ? w : ev.val[e] * w;
    }
    for (std::size_t e = 0; e < ev.rn; ++e) acc += wrec[ev.rec[e] * N + j];
    crow[j] = acc;
  }
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
  return forward_sparse(events_from_batch(x), policy, cache, stats);
}

Tensor RecurrentLifLayer::forward_sparse(const BatchEventList& events,
                                         const ThresholdPolicy& policy, LayerCache* cache,
                                         SpikeOpStats* stats) const {
  const std::size_t T = events.timesteps, B = events.batch, N = n_out_;
  Tensor out(T, B, N);
  Tensor v(B, N);        // current membrane
  Tensor current(B, N);  // I(t)
  if (cache != nullptr) {
    cache->membrane = Tensor(T, B, N);
    cache->spikes = Tensor(T, B, N);
    cache->theta.assign(T, policy.fixed_value);
  }

  // Everything the inner loops touch is hoisted into locals: member and
  // vector accesses through `this`/`events` would otherwise defeat the
  // auto-vectorizer (a float store could alias lif_.beta).
  const float beta = lif_.beta;
  const bool recurrent = lif_.recurrent;
  const float* wff = w_ff_.raw();
  const float* wrec = recurrent ? w_rec_.raw() : nullptr;
  const std::uint32_t* offs = events.offsets.data();
  const std::uint32_t* chan = events.channel.data();
  const float* val = events.value.data();
  const bool unit = events.unit_values;
  float* vmem = v.raw();
  float* cur = current.raw();
  float* outp = out.raw();
  float* cmem = cache != nullptr ? cache->membrane.raw() : nullptr;
  float* cspk = cache != nullptr ? cache->spikes.raw() : nullptr;
  // Output spikes double as the next step's recurrent *events*: each row
  // records its spike indices while it emits them, so the recurrent matmul
  // is event-driven too (hard-mode spikes are exactly 1.0f, and the indices
  // are ascending — the dense kernel's accumulation order).
  std::vector<std::uint32_t> rec_idx(recurrent ? B * N : 0);
  // counts[b·T + t] = spikes of row b at step t, one contiguous run per row
  // so that rows on different threads do not share cache lines.
  std::vector<std::uint32_t> counts(B * T, 0);
  const std::vector<float> zero_row(N, 0.0f);  // S(−1)

  // θ windows: ThresholdState holds θ constant over [t0, t1) — the whole
  // pass for a fixed θ, adjust_interval steps for the adaptive rule — so
  // within a window the rows are independent and each batch row walks its
  // steps on one thread: one parallel dispatch per window, row state hot in
  // cache.  After the window the per-step spike counts, summed in row order,
  // feed observe() in t order.  Per (b, t) the FP ops are forward_dense's,
  // in its order, so outputs, caches, θ and stats are bit-identical to it at
  // any thread count.
  ThresholdState th(policy);
  float theta_prev = policy.fixed_value;  // θ(t0 − 1), the reset at a window's first step
  std::size_t spike_total = 0, rec_events = 0;  // rec_events: spikes at t < T−1
  for (std::size_t t0 = 0; t0 < T;) {
    const float theta = th.threshold_at(static_cast<int>(t0));
    const auto t1 =
        static_cast<std::size_t>(th.window_end(static_cast<int>(t0), static_cast<int>(T)));
    parallel_for(
        0, B,
        [&](std::size_t b) {
          const float theta_w = theta;
          float reset = theta_prev;
          float* vrow = vmem + b * N;
          float* crow = cur + b * N;
          std::uint32_t* ridx = recurrent ? rec_idx.data() + b * N : nullptr;
          std::uint32_t* row_counts = counts.data() + b * T;
          std::uint32_t rn = t0 > 0 ? row_counts[t0 - 1] : 0;  // events of S(t−1)
          for (std::size_t t = t0; t < t1; ++t) {
            // I(t) = X(t)·W_ff + S(t−1)·W_rec from the step's input events
            // and last step's recorded spike indices.
            const RowEvents ev{chan, unit ? nullptr : val, offs[t * B + b], offs[t * B + b + 1],
                               ridx, ridx != nullptr ? rn : 0};
            row_current(ev, wff, wrec, N, crow);
            // S(t−1) is row b of the previous output slab.
            const float* srow_prev =
                t > 0 ? outp + ((t - 1) * B + b) * N : zero_row.data();
            float* srow_out = outp + (t * B + b) * N;
            // V(t) = β·V(t−1) − θ(t−1)·S(t−1) + I(t);  S(t) = Θ(V(t) − θ(t)),
            // branch-free over j so it vectorizes; the select equals
            // hard_spike(vt − θ) exactly.
            for (std::size_t j = 0; j < N; ++j) {
              const float vt = beta * vrow[j] - reset * srow_prev[j] + crow[j];
              vrow[j] = vt;
              srow_out[j] = vt - theta_w > 0.0f ? 1.0f : 0.0f;
            }
            // Spike-index/count scan, kept out of the arithmetic loop above
            // so its data-dependent branch cannot block vectorization.
            std::uint32_t count = 0;
            if (ridx != nullptr) {
              for (std::size_t j = 0; j < N; ++j) {
                if (srow_out[j] != 0.0f) ridx[count++] = static_cast<std::uint32_t>(j);
              }
            } else {
              for (std::size_t j = 0; j < N; ++j) count += srow_out[j] != 0.0f ? 1u : 0u;
            }
            rn = count;
            row_counts[t] = count;
            reset = theta_w;
            if (cmem != nullptr) {
              std::copy(vrow, vrow + N, cmem + (t * B + b) * N);
              std::copy(srow_out, srow_out + N, cspk + (t * B + b) * N);
            }
          }
        },
        (t1 - t0) * N * 4);

    for (std::size_t t = t0; t < t1; ++t) {
      std::size_t spikes = 0;
      for (std::size_t b = 0; b < B; ++b) spikes += counts[b * T + t];
      th.observe(static_cast<int>(t), spikes);
      spike_total += spikes;
      if (t + 1 < T) rec_events += spikes;
    }
    if (cache != nullptr) {
      std::fill(cache->theta.begin() + static_cast<std::ptrdiff_t>(t0),
                cache->theta.begin() + static_cast<std::ptrdiff_t>(t1), theta);
    }
    theta_prev = theta;
    t0 = t1;
  }

  if (stats != nullptr) {
    // Synop stats fall out of the event list and the spike counts: ff synops
    // = every event × n_out; recurrent synops at step t charge the spikes of
    // step t−1, i.e. all spikes except t = T−1's.
    stats->synops += static_cast<std::uint64_t>(events.num_events()) * N;
    if (recurrent) stats->synops += static_cast<std::uint64_t>(rec_events) * N;
    stats->neuron_updates += static_cast<std::uint64_t>(T) * B * N;
    stats->spikes += spike_total;
    stats->timestep_slots += static_cast<std::uint64_t>(T) * B;
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
  Tensor w_rec_t(recurrent ? N : 0, recurrent ? N : 0);  // W_recᵀ, for dV·W_recᵀ
  if (recurrent) kernels::transpose(w_rec_.raw(), N, N, w_rec_t.raw());

  // The BPTT recurrence, in tiles of 4 batch rows: θ(t) comes from the
  // cache, so batch rows are independent under fixed and adaptive thresholds
  // alike, and each tile walks all T steps on one thread.  Per step the
  // tile's rows of dV(t) are contiguous, so one kernels::matmul_rows forms
  // dV(t)·W_recᵀ for the whole tile in registers, and every loaded row of
  // W_recᵀ serves 4 batch rows.  Per element the FP ops are the
  // per-timestep loop's, in its order:
  //   ∂L/∂S(t) = upstream + d_s_rec;  ∂L/∂V(t) = ∂L/∂S(t)·Θ′(u) + β·∂L/∂V(t+1)
  //   d_s_rec  = ∂L/∂V(t)·W_recᵀ (k ascending) [− θ(t−1)·∂L/∂V(t) unless detached]
  // Locals keep member loads out of the inner loops.
  constexpr std::size_t kRows = 4;  // batch rows per tile: matmul_rows' register tile
  const float beta = lif_.beta;
  const bool detach_reset = lif_.detach_reset;
  const SurrogateParams surrogate = surrogate_;
  const float* up = d_out.raw();
  const float* vmem = cache.membrane.raw();
  const float* theta = cache.theta.data();
  const float* wrec_t = w_rec_t.raw();
  float* dvp = d_v.raw();
  float* recp = d_s_rec.raw();
  const std::vector<float> zero_rows(kRows * N, 0.0f);  // ∂L/∂V(T)
  parallel_for(
      0, (B + kRows - 1) / kRows,
      [&](std::size_t tile) {
        const std::size_t b0 = tile * kRows, rows = std::min(kRows, B - b0);
        const std::size_t len = rows * N;  // the tile's elements per step
        float* rec = recp + b0 * N;
        for (std::size_t t = T; t-- > 0;) {
          const std::size_t row = (t * B + b0) * N;
          float* dv = dvp + row;
          const float* dv_next = t + 1 < T ? dv + B * N : zero_rows.data();
          const float theta_t = theta[t];
          for (std::size_t i = 0; i < len; ++i) {
            const float ds = up[row + i] + rec[i];
            dv[i] = ds * surrogate_grad(vmem[row + i] - theta_t, surrogate) + beta * dv_next[i];
          }
          if (t == 0) break;
          std::fill(rec, rec + len, 0.0f);
          if (recurrent) kernels::matmul_rows(dv, rows, N, wrec_t, N, rec);
          if (!detach_reset) {
            // V(t) contains −θ(t−1)·S(t−1).
            const float theta_prev = theta[t - 1];
            for (std::size_t i = 0; i < len; ++i) rec[i] -= theta_prev * dv[i];
          }
        }
      },
      kRows * T * N * (recurrent ? N : 4));

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
  const float beta = in.read_f32();
  const std::uint32_t detach_reset = in.read_u32();
  const std::uint32_t recurrent = in.read_u32();
  const std::uint32_t kind = in.read_u32();
  R4NCL_CHECK(detach_reset <= 1, "corrupt layer: detach_reset flag is " << detach_reset);
  R4NCL_CHECK(recurrent <= 1, "corrupt layer: recurrent flag is " << recurrent);
  R4NCL_CHECK((recurrent != 0) == lif_.recurrent, "checkpoint recurrence mismatch");
  R4NCL_CHECK(kind <= static_cast<std::uint32_t>(SurrogateKind::kBoxcar),
              "corrupt layer: surrogate kind is " << kind);
  lif_.beta = beta;
  lif_.detach_reset = detach_reset != 0;
  surrogate_.kind = static_cast<SurrogateKind>(kind);
  surrogate_.scale = in.read_f32();
  const auto ff = in.read_f32_vector();
  R4NCL_CHECK(ff.size() == w_ff_.size(), "w_ff size mismatch");
  std::copy(ff.begin(), ff.end(), w_ff_.values().begin());
  const auto rec = in.read_f32_vector();
  R4NCL_CHECK(rec.size() == w_rec_.size(), "w_rec size mismatch");
  std::copy(rec.begin(), rec.end(), w_rec_.values().begin());
}

}  // namespace r4ncl::snn
