#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace vnfr::common {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.thread_count(), threads);
        std::vector<std::atomic<int>> hits(257);
        pool.parallel_for_blocked(0, hits.size(), 5, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
        });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
    }
}

TEST(ThreadPool, BlockedRangesPartitionTheRange) {
    ThreadPool pool(4);
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    pool.parallel_for_blocked(10, 55, 7, [&](std::size_t lo, std::size_t hi) {
        const std::lock_guard<std::mutex> lock(mutex);
        blocks.emplace_back(lo, hi);
    });
    std::sort(blocks.begin(), blocks.end());
    ASSERT_FALSE(blocks.empty());
    EXPECT_EQ(blocks.front().first, 10u);
    EXPECT_EQ(blocks.back().second, 55u);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        EXPECT_LE(blocks[b].second - blocks[b].first, 7u);
        if (b > 0) {
            EXPECT_EQ(blocks[b].first, blocks[b - 1].second);  // no gap, no overlap
        }
    }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
    ThreadPool pool(2);
    bool ran = false;
    pool.parallel_for_blocked(5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
    pool.parallel_for_blocked(7, 3, 1, [&](std::size_t, std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ZeroGrainThrows) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for_blocked(0, 4, 0, [](std::size_t, std::size_t) {}),
                 std::invalid_argument);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool(threads);
        std::atomic<int> survivors{0};
        try {
            pool.parallel_for_blocked(0, 64, 1, [&](std::size_t lo, std::size_t) {
                if (lo == 17 || lo == 41) {
                    throw std::runtime_error("block " + std::to_string(lo));
                }
                ++survivors;
            });
            FAIL() << "expected an exception (threads=" << threads << ")";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "block 17");
        }
        // A throwing block never takes down other blocks or a worker.
        EXPECT_EQ(survivors.load(), 62);
    }
}

TEST(ThreadPool, PoolSurvivesAFailedParallelFor) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for_blocked(0, 8, 1,
                                           [](std::size_t lo, std::size_t) {
                                               if (lo == 3) throw std::logic_error("boom");
                                           }),
                 std::logic_error);
    std::atomic<int> count{0};
    pool.parallel_for_blocked(0, 100, 3, [&](std::size_t lo, std::size_t hi) {
        count += static_cast<int>(hi - lo);
    });
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForIsRejected) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for_blocked(0, 8, 1,
                                           [&](std::size_t, std::size_t) {
                                               pool.parallel_for_blocked(
                                                   0, 2, 1,
                                                   [](std::size_t, std::size_t) {});
                                           }),
                 ContractViolation);
}

TEST(ThreadPool, DefaultThreadCountHonoursEnvVar) {
    const char* saved = std::getenv("VNFR_THREADS");
    const std::string saved_value = saved ? saved : "";

    ::setenv("VNFR_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
    ThreadPool pool(0);
    EXPECT_EQ(pool.thread_count(), 3u);

    // Malformed or non-positive values fall back to hardware concurrency.
    ::setenv("VNFR_THREADS", "zero", 1);
    EXPECT_GE(ThreadPool::default_thread_count(), 1u);
    ::setenv("VNFR_THREADS", "-2", 1);
    EXPECT_GE(ThreadPool::default_thread_count(), 1u);

    if (saved) {
        ::setenv("VNFR_THREADS", saved_value.c_str(), 1);
    } else {
        ::unsetenv("VNFR_THREADS");
    }
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
    const std::size_t n = 10'000;
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i % 97) * 0.5;

    ThreadPool pool(8);
    std::vector<double> doubled(n);
    pool.parallel_for_blocked(0, n, 64, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) doubled[i] = 2.0 * values[i];
    });

    const double expect = 2.0 * std::accumulate(values.begin(), values.end(), 0.0);
    EXPECT_DOUBLE_EQ(std::accumulate(doubled.begin(), doubled.end(), 0.0), expect);
}

}  // namespace
}  // namespace vnfr::common
