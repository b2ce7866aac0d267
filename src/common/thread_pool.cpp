#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.hpp"

namespace vnfr::common {

struct ThreadPool::Job {
    std::size_t begin{0};
    std::size_t end{0};
    std::size_t grain{1};
    std::size_t block_count{0};
    const BlockFn* body{nullptr};

    std::atomic<std::size_t> next_block{0};
    std::atomic<std::size_t> finished_blocks{0};

    Mutex error_mutex;
    /// (block index, exception) pairs; rethrow the lowest block index so
    /// failure reporting does not depend on thread scheduling.
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors
        VNFR_GUARDED_BY(error_mutex);
};

ThreadPool::ThreadPool(std::size_t thread_count)
    : thread_count_(thread_count == 0 ? default_thread_count() : thread_count) {
    workers_.reserve(thread_count_ - 1);
    for (std::size_t i = 0; i + 1 < thread_count_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const MutexLock lock(&mutex_);
        stopping_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::default_thread_count() {
    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (const char* env = std::getenv("VNFR_THREADS")) {
        char* end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed >= 1) {
            return std::min(static_cast<std::size_t>(parsed), 4 * hardware);
        }
    }
    return hardware;
}

void ThreadPool::run_blocks(Job& job) {
    for (;;) {
        const std::size_t block = job.next_block.fetch_add(1, std::memory_order_relaxed);
        if (block >= job.block_count) return;
        const std::size_t lo = job.begin + block * job.grain;
        const std::size_t hi = std::min(lo + job.grain, job.end);
        try {
            (*job.body)(lo, hi);
        } catch (...) {
            const MutexLock lock(&job.error_mutex);
            job.errors.emplace_back(block, std::current_exception());
        }
        job.finished_blocks.fetch_add(1, std::memory_order_release);
    }
}

void ThreadPool::worker_loop() {
    std::uint64_t seen_epoch = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            MutexLock lock(&mutex_);
            while (!stopping_ && (job_ == nullptr || job_epoch_ == seen_epoch)) {
                job_cv_.wait(mutex_);
            }
            if (stopping_) return;
            job = job_;
            seen_epoch = job_epoch_;
        }
        run_blocks(*job);
        // The caller may be sleeping on done_cv_. Acquiring the mutex before
        // notifying orders this worker's finished_blocks increments against
        // the caller's predicate check, ruling out a lost wakeup.
        {
            const MutexLock lock(&mutex_);
        }
        done_cv_.notify_one();
    }
}

void ThreadPool::parallel_for_blocked(std::size_t begin, std::size_t end,
                                      std::size_t grain, const BlockFn& body) {
    if (grain == 0) throw std::invalid_argument("parallel_for_blocked: grain == 0");
    if (begin >= end) return;
    const std::size_t n = end - begin;
    const std::size_t block_count = (n + grain - 1) / grain;

    if (thread_count_ == 1 || block_count == 1) {
        // Serial fast path: run blocks in index order on the caller. A
        // throwing block must not skip the remaining blocks — the parallel
        // path drains every block regardless of failures, and side effects
        // have to be thread-count-invariant — so defer the first error.
        std::exception_ptr first_error;
        for (std::size_t b = 0; b < block_count; ++b) {
            const std::size_t lo = begin + b * grain;
            try {
                body(lo, std::min(lo + grain, end));
            } catch (...) {
                if (first_error == nullptr) first_error = std::current_exception();
            }
        }
        if (first_error != nullptr) std::rethrow_exception(first_error);
        return;
    }

    auto job = std::make_shared<Job>();
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->block_count = block_count;
    job->body = &body;

    {
        const MutexLock lock(&mutex_);
        VNFR_CHECK(job_ == nullptr, "ThreadPool::parallel_for_blocked is not reentrant");
        job_ = job;
        ++job_epoch_;
    }
    job_cv_.notify_all();

    // The caller is one of the pool's threads: claim blocks alongside the
    // workers instead of blocking immediately.
    run_blocks(*job);

    {
        MutexLock lock(&mutex_);
        while (job->finished_blocks.load(std::memory_order_acquire) !=
               job->block_count) {
            done_cv_.wait(mutex_);
        }
        job_ = nullptr;
    }

    // All workers are past their last errors write (finished_blocks was
    // published with release order), but take the error lock anyway: the
    // uncontended acquire is free and keeps every access to the guarded
    // vector inside its capability.
    const MutexLock error_lock(&job->error_mutex);
    if (!job->errors.empty()) {
        std::pair<std::size_t, std::exception_ptr>* first = &job->errors.front();
        for (auto& e : job->errors) {
            if (e.first < first->first) first = &e;
        }
        std::rethrow_exception(first->second);
    }
}

}  // namespace vnfr::common
