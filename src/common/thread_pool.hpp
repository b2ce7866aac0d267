// A small fixed-size thread pool with a blocked-range parallel for.
//
// Design constraints, in order:
//   1. Determinism of *results* must never depend on the pool: callers
//      write into pre-sized slots indexed by iteration number and reduce
//      in index order afterwards, so any interleaving yields identical
//      output (the experiment engine's thread-count-invariance contract).
//   2. Exception propagation: a throwing iteration never crashes a worker.
//      Exceptions are captured per block and the one from the *lowest*
//      block index is rethrown on the calling thread, so even failures are
//      reported deterministically.
//   3. No work stealing, no futures, no allocation per iteration — the
//      replications this pool runs are milliseconds to seconds each, so a
//      shared atomic block cursor is contention-free in practice.
//
// `thread_count` counts the calling thread: the pool spawns N-1 workers
// and the caller runs blocks of every call, so thread_count == 1 means
// strictly serial inline execution with zero spawned threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace vnfr::common {

class ThreadPool {
  public:
    /// Body of a blocked range: processes indices [begin, end).
    using BlockFn = std::function<void(std::size_t, std::size_t)>;

    /// `thread_count` = total threads that execute block bodies,
    /// including the caller; 0 picks default_thread_count().
    explicit ThreadPool(std::size_t thread_count = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t thread_count() const { return thread_count_; }

    /// Runs `body(lo, hi)` over [begin, end) split into blocks of at most
    /// `grain` indices. Blocks execute concurrently in unspecified order;
    /// the call returns after every block finished. If any block threw, the
    /// exception of the lowest-indexed failing block is rethrown here.
    /// Throws std::invalid_argument for grain == 0. Not reentrant: a
    /// block body must not submit to the same pool.
    void parallel_for_blocked(std::size_t begin, std::size_t end, std::size_t grain,
                              const BlockFn& body);

    /// VNFR_THREADS from the environment when it parses as a positive
    /// integer (clamped to [1, 4 * hardware]), else hardware concurrency,
    /// else 1. This is the single knob the benches and the experiment
    /// engine consult.
    static std::size_t default_thread_count();

  private:
    struct Job;

    void worker_loop();
    /// Claims and runs blocks of `job` until its cursor is exhausted.
    static void run_blocks(Job& job);

    std::size_t thread_count_;
    std::vector<std::thread> workers_;

    Mutex mutex_;
    CondVar job_cv_;   ///< workers: a job was posted / stop
    CondVar done_cv_;  ///< caller: all blocks finished
    /// Current job; null when idle.
    std::shared_ptr<Job> job_ VNFR_GUARDED_BY(mutex_);
    /// Bumped per posted job.
    std::uint64_t job_epoch_ VNFR_GUARDED_BY(mutex_) = 0;
    bool stopping_ VNFR_GUARDED_BY(mutex_) = false;
};

}  // namespace vnfr::common
