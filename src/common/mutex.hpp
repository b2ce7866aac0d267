// Annotated synchronization primitives for Clang thread-safety analysis.
//
// Thin zero-overhead wrappers over std::mutex / std::condition_variable
// that carry the capability annotations from common/annotations.hpp, so
// `-Wthread-safety` can prove lock discipline at compile time. All
// concurrent code in this repo uses these instead of the raw std types;
// tools/vnfr_asa.py's lock-order rule also keys off the `Mutex` /
// `MutexLock` spellings, and the declared lock hierarchy lives in
// tools/lock_hierarchy.txt.
//
// Pattern:
//
//   class Counter {
//     public:
//       void bump() VNFR_EXCLUDES(mutex_) {
//           MutexLock lock(&mutex_);
//           ++count_;                       // OK: mutex_ held
//       }
//     private:
//       Mutex mutex_;
//       int count_ VNFR_GUARDED_BY(mutex_) = 0;
//   };
//
// Waiting uses explicit while-loops over guarded state rather than
// predicate lambdas: the analysis cannot see that a lambda body runs
// with the lock held, but it fully checks a loop written inline in the
// locked scope:
//
//   MutexLock lock(&mutex_);
//   while (!ready_) cv_.wait(mutex_);
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/annotations.hpp"

namespace vnfr::common {

class CondVar;

/// A std::mutex that participates in thread-safety analysis.
class VNFR_CAPABILITY("mutex") Mutex {
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() VNFR_ACQUIRE() { m_.lock(); }
    void unlock() VNFR_RELEASE() { m_.unlock(); }

  private:
    friend class CondVar;
    std::mutex m_;
};

/// RAII scoped lock over Mutex (the only way most code should lock).
class VNFR_SCOPED_CAPABILITY MutexLock {
  public:
    explicit MutexLock(Mutex* mu) VNFR_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
    ~MutexLock() VNFR_RELEASE() { mu_->unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

  private:
    Mutex* const mu_;
};

/// Condition variable bound to an annotated Mutex. wait() requires the
/// mutex to be held, and re-holds it on return, exactly like
/// std::condition_variable with a unique_lock — the adopt/release dance
/// below keeps the native std::condition_variable fast path while the
/// caller keeps using MutexLock scopes the analysis understands.
class CondVar {
  public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /// Atomically releases `mu` and sleeps until notified; `mu` is held
    /// again when wait returns. Spurious wakeups are possible — always
    /// call from a while-loop over the guarded predicate.
    void wait(Mutex& mu) VNFR_REQUIRES(mu) {
        std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
        cv_.wait(native);
        native.release();  // ownership stays with the caller's MutexLock
    }

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

}  // namespace vnfr::common
