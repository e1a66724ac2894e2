#include "metrics/accuracy.hpp"

namespace r4ncl::metrics {

double ForgettingTracker::update(double old_task_accuracy) noexcept {
  if (old_task_accuracy > best_) best_ = old_task_accuracy;
  forgetting_ = best_ - old_task_accuracy;
  return forgetting_;
}

}  // namespace r4ncl::metrics
