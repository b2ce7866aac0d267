#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace vnfr::common {
namespace {

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, SingleValue) {
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
    RunningStats s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MatchesTwoPassComputation) {
    Rng rng(1);
    std::vector<double> values;
    RunningStats s;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-10, 10);
        values.push_back(v);
        s.add(v);
    }
    double mean = 0.0;
    for (const double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (const double v : values) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size() - 1);
    EXPECT_NEAR(s.mean(), mean, 1e-10);
    EXPECT_NEAR(s.variance(), var, 1e-9);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
    Rng rng(3);
    RunningStats small;
    RunningStats large;
    for (int i = 0; i < 10; ++i) small.add(rng.normal(0, 1));
    for (int i = 0; i < 1000; ++i) large.add(rng.normal(0, 1));
    EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Percentile, Median) {
    const std::vector<double> v{3, 1, 2};
    EXPECT_DOUBLE_EQ(percentile(v, 50), 2.0);
}

TEST(Percentile, Extremes) {
    const std::vector<double> v{5, 1, 9, 3};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 9.0);
}

TEST(Percentile, Interpolates) {
    const std::vector<double> v{0, 10};
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 75), 7.5);
}

TEST(Percentile, SingleElement) {
    const std::vector<double> v{7};
    EXPECT_DOUBLE_EQ(percentile(v, 10), 7.0);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 7.0);
}

TEST(Percentile, RejectsBadInput) {
    const std::vector<double> empty;
    EXPECT_THROW(percentile(empty, 50), std::invalid_argument);
    const std::vector<double> v{1.0};
    EXPECT_THROW(percentile(v, -1), std::invalid_argument);
    EXPECT_THROW(percentile(v, 101), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::common
