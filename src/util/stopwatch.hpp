// Wall-clock stopwatch for measured (as opposed to modelled) latency.
#pragma once

#include <chrono>

namespace r4ncl {

/// Steady-clock stopwatch.  Construction starts it; elapsed_seconds() may be
/// polled repeatedly; restart() resets the origin.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  void restart() noexcept { start_ = clock::now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double elapsed_ms() const noexcept { return elapsed_seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace r4ncl
