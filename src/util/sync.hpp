// Annotated synchronization primitives.
//
// libstdc++'s std::mutex / std::lock_guard carry no Clang Thread Safety
// Analysis attributes, so code locking them is invisible to -Wthread-safety.
// Every lock in src/ therefore goes through these thin wrappers instead:
// Mutex is a capability and MutexLock a scoped acquire.  The wrappers add no
// state beyond std::mutex and compile to the same code.
//
// Lock discipline, pinned by annotation rather than comment: public APIs of
// lock-owning classes are R4NCL_EXCLUDES(mu), so callers never hold the lock
// and no acquisition order across classes can form.
#pragma once

#include <mutex>

#include "util/thread_annotations.hpp"

namespace r4ncl {

/// std::mutex annotated as a Clang TSA capability.
class R4NCL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() R4NCL_ACQUIRE() { mu_.lock(); }
  void unlock() R4NCL_RELEASE() { mu_.unlock(); }

 private:
  // r4ncl-lint: allow(raw-mutex) this IS the annotated wrapper; the raw mutex is private and reachable only through the capability methods above
  std::mutex mu_;
};

/// RAII lock for Mutex — the annotated std::lock_guard.
class R4NCL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) R4NCL_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() R4NCL_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace r4ncl
