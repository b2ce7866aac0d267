#include "common/math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace vnfr::common {
namespace {

TEST(AlmostEqual, BasicCases) {
    EXPECT_TRUE(almost_equal(1.0, 1.0));
    EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(almost_equal(1.0, 1.001));
    EXPECT_TRUE(almost_equal(0.0, 1e-13));
    EXPECT_FALSE(almost_equal(0.0, 1e-3));
}

TEST(Log1m, MatchesNaiveForModerateValues) {
    for (const double x : {0.0, 0.1, 0.5, 0.9}) {
        EXPECT_NEAR(log1m(x), std::log(1.0 - x), 1e-12);
    }
}

TEST(Log1m, PrecisionNearZero) {
    // log(1 - 1e-15) loses all precision naively; log1m must not.
    EXPECT_NEAR(log1m(1e-15), -1e-15, 1e-25);
}

TEST(Log1m, RejectsOutOfDomain) {
    EXPECT_THROW(log1m(-0.1), std::domain_error);
    EXPECT_THROW(log1m(1.0), std::domain_error);
}

TEST(OneMinusExp, Basics) {
    EXPECT_DOUBLE_EQ(one_minus_exp(0.0), 0.0);
    EXPECT_NEAR(one_minus_exp(-1.0), 1.0 - std::exp(-1.0), 1e-15);
    EXPECT_THROW(one_minus_exp(0.5), std::domain_error);
}

TEST(OneMinusExp, RoundTripsLog1m) {
    for (const double p : {0.001, 0.3, 0.9999}) {
        EXPECT_NEAR(one_minus_exp(log1m(p)), p, 1e-12);
    }
}

TEST(AtLeastOne, ZeroComponents) {
    EXPECT_DOUBLE_EQ(at_least_one(0.9, 0), 0.0);
}

TEST(AtLeastOne, OneComponent) {
    EXPECT_DOUBLE_EQ(at_least_one(0.9, 1), 0.9);
}

TEST(AtLeastOne, MatchesNaiveFormula) {
    for (const double p : {0.5, 0.9, 0.99}) {
        for (const int k : {1, 2, 3, 5}) {
            EXPECT_NEAR(at_least_one(p, k), 1.0 - std::pow(1.0 - p, k), 1e-12)
                << "p=" << p << " k=" << k;
        }
    }
}

TEST(AtLeastOne, MonotoneInK) {
    double prev = 0.0;
    for (int k = 1; k <= 10; ++k) {
        const double v = at_least_one(0.7, k);
        EXPECT_GT(v, prev);
        prev = v;
    }
}

TEST(AtLeastOne, HighReliabilityPrecision) {
    // 1 - (1 - 0.9999)^2 = 1 - 1e-8: representable, and the log1p route
    // must agree to full precision.
    EXPECT_NEAR(at_least_one(0.9999, 2), 1.0 - 1e-8, 1e-16);
}

TEST(AtLeastOne, RejectsBadInput) {
    EXPECT_THROW(at_least_one(-0.1, 1), std::domain_error);
    EXPECT_THROW(at_least_one(1.1, 1), std::domain_error);
    EXPECT_THROW(at_least_one(0.5, -1), std::domain_error);
}

TEST(RequireOpenUnit, PassesInteriorValues) {
    EXPECT_DOUBLE_EQ(require_open_unit(0.5, "p"), 0.5);
    EXPECT_DOUBLE_EQ(require_open_unit(0.9999, "p"), 0.9999);
}

TEST(RequireOpenUnit, RejectsBoundaryAndOutside) {
    EXPECT_THROW(require_open_unit(0.0, "p"), std::invalid_argument);
    EXPECT_THROW(require_open_unit(1.0, "p"), std::invalid_argument);
    EXPECT_THROW(require_open_unit(-1.0, "p"), std::invalid_argument);
    EXPECT_THROW(require_open_unit(2.0, "p"), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::common
