// Parallel-for helper used by the tensor kernels.
//
// Built on OpenMP when available (R4NCL_HAVE_OPENMP), otherwise a
// std::thread fallback.  The thread count is controlled by
// set_num_threads() (the CLI binaries apply their threads= knob, or
// R4NCL_THREADS, through it); the default is the hardware concurrency.
#pragma once

#include <cstddef>
#include <functional>

namespace r4ncl {

/// Sets the worker count for subsequent parallel_for calls (clamped to >= 1).
void set_num_threads(int n) noexcept;

/// Current worker count.
int num_threads() noexcept;

/// True when the library was compiled with OpenMP (R4NCL_HAVE_OPENMP);
/// false means parallel_for uses the std::thread fallback and a one-time
/// warning is logged the first time that matters.
bool openmp_enabled() noexcept;

/// Invokes body(i) for i in [begin, end).  Iterations must be independent.
/// Small ranges (or grain hints) and one-iteration ranges run serially on
/// the calling thread to avoid fork overhead.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Worker-pool entry point for long-lived concurrent tasks (fleet device
/// streams against a ShardedReplayEngine, stress tests): spawns exactly
/// `workers` std::threads running body(worker_index) and joins them all.
/// Unlike parallel_for this never dispatches through OpenMP (the workers are
/// coarse, stateful tasks, not loop iterations) and never runs serially —
/// workers == 1 still gets its own thread, so sanitizer lanes exercise the
/// real threading path.  The first exception a worker throws is rethrown on
/// the caller after every worker has joined; later ones are dropped.
void run_workers(std::size_t workers, const std::function<void(std::size_t)>& body);

}  // namespace r4ncl
