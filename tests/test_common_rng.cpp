#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace vnfr::common {
namespace {

TEST(Rng, SameSeedSameSequence) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, Uniform01InRange) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, Uniform01MeanNearHalf) {
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.uniform01();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-5.0, 9.0);
        EXPECT_GE(v, -5.0);
        EXPECT_LT(v, 9.0);
    }
}

TEST(Rng, UniformRejectsInvertedRange) {
    Rng rng(3);
    EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversAllValues) {
    Rng rng(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 8));
    EXPECT_EQ(seen.size(), 6u);
    EXPECT_EQ(*seen.begin(), 3);
    EXPECT_EQ(*seen.rbegin(), 8);
}

TEST(Rng, UniformIntSingleton) {
    Rng rng(5);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
    Rng rng(5);
    EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformIntApproximatelyUniform) {
    Rng rng(17);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
    }
}

TEST(Rng, BernoulliExtremes) {
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliRejectsBadProbability) {
    Rng rng(13);
    EXPECT_THROW(rng.bernoulli(-0.1), std::invalid_argument);
    EXPECT_THROW(rng.bernoulli(1.1), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatchesRate) {
    Rng rng(19);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialNonNegative) {
    Rng rng(19);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(0.5), 0.0);
}

TEST(Rng, ExponentialRejectsBadRate) {
    Rng rng(19);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
    EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, BoundedParetoStaysInRange) {
    Rng rng(23);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.bounded_pareto(1.5, 1.0, 50.0);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 50.0);
    }
}

TEST(Rng, BoundedParetoHeavyTail) {
    // With alpha = 1.2 most mass sits near the lower bound.
    Rng rng(29);
    int low = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        if (rng.bounded_pareto(1.2, 1.0, 100.0) < 5.0) ++low;
    }
    EXPECT_GT(low, n / 2);
}

TEST(Rng, BoundedParetoDegenerateRange) {
    Rng rng(29);
    EXPECT_DOUBLE_EQ(rng.bounded_pareto(2.0, 3.0, 3.0), 3.0);
}

TEST(Rng, BoundedParetoRejectsBadParameters) {
    Rng rng(29);
    EXPECT_THROW(rng.bounded_pareto(0.0, 1.0, 2.0), std::invalid_argument);
    EXPECT_THROW(rng.bounded_pareto(1.0, 0.0, 2.0), std::invalid_argument);
    EXPECT_THROW(rng.bounded_pareto(1.0, 3.0, 2.0), std::invalid_argument);
}

TEST(Rng, PoissonMeanMatches) {
    Rng rng(31);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += rng.poisson(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, PoissonRejectsBadMean) {
    Rng rng(31);
    EXPECT_THROW(rng.poisson(0.0), std::invalid_argument);
    EXPECT_THROW(rng.poisson(1000.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
    Rng rng(37);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(10.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.05);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
    Rng rng(43);
    const auto sample = rng.sample_without_replacement(20, 10);
    EXPECT_EQ(sample.size(), 10u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (const std::size_t s : sample) EXPECT_LT(s, 20u);
}

TEST(Rng, SampleWithoutReplacementFull) {
    Rng rng(43);
    const auto sample = rng.sample_without_replacement(5, 5);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
    Rng rng(43);
    EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStreams) {
    Rng parent(47);
    Rng a = parent.split(0);
    Rng b = parent.split(1);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, SplitIsDeterministic) {
    Rng p1(47);
    Rng p2(47);
    Rng a = p1.split(5);
    Rng b = p2.split(5);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace vnfr::common
