#include "common/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace vnfr::common {
namespace {

TEST(Contracts, PassingCheckIsSilent) {
    EXPECT_NO_THROW(VNFR_CHECK(1 + 1 == 2));
    EXPECT_NO_THROW(VNFR_CHECK(true, "never printed ", 42));
}

TEST(Contracts, FailingCheckThrowsWithLocationAndDetail) {
    try {
        VNFR_CHECK(false, "cloudlet ", 3, " broke");
        FAIL() << "VNFR_CHECK(false) did not throw";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("false"), std::string::npos);
        EXPECT_NE(what.find("test_common_contracts.cpp"), std::string::npos);
        EXPECT_NE(what.find("cloudlet 3 broke"), std::string::npos);
    }
}

TEST(Contracts, CheckProbAcceptsUnitIntervalAndRoundingSlack) {
    EXPECT_DOUBLE_EQ(VNFR_CHECK_PROB(0.0), 0.0);
    EXPECT_DOUBLE_EQ(VNFR_CHECK_PROB(1.0), 1.0);
    EXPECT_DOUBLE_EQ(VNFR_CHECK_PROB(0.9999), 0.9999);
    // Values a few ulp past the ends are rounding of long products, not bugs.
    EXPECT_NO_THROW(VNFR_CHECK_PROB(1.0 + 1e-12));
    EXPECT_NO_THROW(VNFR_CHECK_PROB(-1e-12));
}

TEST(Contracts, CheckProbRejectsOutOfRangeAndNan) {
    EXPECT_THROW(VNFR_CHECK_PROB(1.1), ContractViolation);
    EXPECT_THROW(VNFR_CHECK_PROB(-0.2), ContractViolation);
    EXPECT_THROW(VNFR_CHECK_PROB(std::numeric_limits<double>::quiet_NaN()),
                 ContractViolation);
    EXPECT_THROW(VNFR_CHECK_PROB(std::numeric_limits<double>::infinity()),
                 ContractViolation);
}

TEST(Contracts, CheckFinitePassesValueThrough) {
    EXPECT_DOUBLE_EQ(VNFR_CHECK_FINITE(-3.5), -3.5);
    EXPECT_THROW(VNFR_CHECK_FINITE(std::numeric_limits<double>::infinity()),
                 ContractViolation);
    EXPECT_THROW(VNFR_CHECK_FINITE(std::nan("")), ContractViolation);
}

TEST(Contracts, DcheckConditionNotEvaluatedWhenCompiledOut) {
    int evaluations = 0;
    const auto touch = [&] {
        ++evaluations;
        return true;
    };
    VNFR_DCHECK(touch());
#if !defined(NDEBUG) || defined(VNFR_ENABLE_DCHECKS)
    EXPECT_EQ(evaluations, 1);
#else
    EXPECT_EQ(evaluations, 0);
#endif
}

}  // namespace
}  // namespace vnfr::common
