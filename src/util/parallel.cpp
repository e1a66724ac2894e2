#include "util/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

#if defined(R4NCL_HAVE_OPENMP)
#include <omp.h>
#endif

namespace r4ncl {

namespace {
std::atomic<int> g_threads{0};  // 0 = uninitialised → hardware_concurrency

int default_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

#if !defined(R4NCL_HAVE_OPENMP)
// The std::thread fallback must never be invisible: hot paths like
// kernels::matmul assume the OpenMP dispatch, so a build without it warns
// exactly once, at the first parallel_for that forks.
void warn_if_no_openmp() {
  // r4ncl-lint: allow(static-local) std::call_once's flag is its own synchronization
  static std::once_flag flag;
  std::call_once(flag, [] {
    R4NCL_WARN("r4ncl built without OpenMP: parallel_for uses the std::thread "
               "fallback; rebuild with OpenMP for full matmul throughput");
  });
}
#endif
}  // namespace

void set_num_threads(int n) noexcept { g_threads.store(n < 1 ? 1 : n); }

int num_threads() noexcept {
  int n = g_threads.load();
  if (n == 0) {
    n = default_threads();
    g_threads.store(n);
  }
  return n;
}

bool openmp_enabled() noexcept {
#if defined(R4NCL_HAVE_OPENMP)
  return true;
#else
  return false;
#endif
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const int workers = num_threads();
  // One iteration never gains from a team: it runs on the calling thread.
  if (workers <= 1 || count == 1 || count * grain < 2048) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
#if defined(R4NCL_HAVE_OPENMP)
#pragma omp parallel for num_threads(workers) schedule(static)
  for (long long i = static_cast<long long>(begin); i < static_cast<long long>(end); ++i) {
    body(static_cast<std::size_t>(i));
  }
#else
  // Portable fallback: block partitioning over std::thread.
  warn_if_no_openmp();
  const std::size_t chunk = (count + static_cast<std::size_t>(workers) - 1) /
                            static_cast<std::size_t>(workers);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const std::size_t lo = begin + chunk * static_cast<std::size_t>(w);
    if (lo >= end) break;
    const std::size_t hi = lo + chunk < end ? lo + chunk : end;
    pool.emplace_back([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }
  for (auto& t : pool) t.join();
#endif
}

namespace {

/// First-exception slot shared by a run_workers pool.  The mutex is a leaf:
/// capture() runs inside worker catch blocks and calls nothing else, so no
/// acquisition order with caller-side locks can form — take_first() is
/// R4NCL_EXCLUDES(mu_), which additionally pins that the joining caller
/// reads the slot lock-free of its own locks.
class FirstError {
 public:
  void capture(std::exception_ptr err) R4NCL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (!err_) err_ = std::move(err);
  }

  /// The first captured exception (empty if none).  Call after every writer
  /// has joined.
  [[nodiscard]] std::exception_ptr take_first() R4NCL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return std::move(err_);
  }

 private:
  Mutex mu_;
  std::exception_ptr err_ R4NCL_GUARDED_BY(mu_);
};

}  // namespace

void run_workers(std::size_t workers, const std::function<void(std::size_t)>& body) {
  if (workers == 0) return;
  // Coarse stateful tasks, not loop iterations: always plain std::threads
  // (even for one worker), so OpenMP runtime quirks never shape fleet
  // concurrency and TSan sees the real threading.
  std::vector<std::thread> pool;
  pool.reserve(workers);
  FirstError first_error;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([w, &body, &first_error] {
      try {
        body(w);
      } catch (...) {
        first_error.capture(std::current_exception());
      }
    });
  }
  for (auto& t : pool) t.join();
  if (std::exception_ptr err = first_error.take_first()) std::rethrow_exception(err);
}

}  // namespace r4ncl
