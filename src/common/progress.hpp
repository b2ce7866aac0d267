// Thread-safe completion meter for parallel fan-outs.
//
// The Monte-Carlo fault-replay study (sim/recovery_study) fans
// replications out over a ThreadPool; long runs want progress feedback
// without perturbing the bit-identical-results contract. ProgressMeter
// counts completions under an annotated Mutex and invokes the callback
// *serially* (under the lock), so the callback needs no synchronization
// of its own. Completion order — and therefore the order of `done`
// values delivered — depends on thread scheduling; only the final
// (total, total) call is deterministic. Keep callbacks cheap: they run
// inside the worker that finished the replication.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace vnfr::common {

/// Callback signature: (replications completed so far, total).
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

class ProgressMeter {
  public:
    /// A default-constructed (empty) callback makes tick() a no-op.
    ProgressMeter(std::size_t total, ProgressFn callback)
        : total_(total), callback_(std::move(callback)) {}

    ProgressMeter(const ProgressMeter&) = delete;
    ProgressMeter& operator=(const ProgressMeter&) = delete;

    /// Records one completed unit and reports it. Safe to call
    /// concurrently from any pool thread.
    void tick() VNFR_EXCLUDES(mutex_) {
        if (!callback_) return;
        const MutexLock lock(&mutex_);
        ++completed_;
        callback_(completed_, total_);
    }

  private:
    const std::size_t total_;
    const ProgressFn callback_;  ///< immutable after construction
    Mutex mutex_;
    std::size_t completed_ VNFR_GUARDED_BY(mutex_) = 0;
};

}  // namespace vnfr::common
