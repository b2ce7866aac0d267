#include "opt/lp.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace vnfr::opt {
namespace {

TEST(LinearProgram, AddVariableAndRow) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(3.0, 1.0, "x");
    const std::size_t y = lp.add_variable(5.0);
    EXPECT_EQ(lp.variable_count(), 2u);
    EXPECT_DOUBLE_EQ(lp.objective_coefficient(x), 3.0);
    EXPECT_DOUBLE_EQ(lp.upper_bound(x), 1.0);
    EXPECT_DOUBLE_EQ(lp.upper_bound(y), kInfinity);
    EXPECT_EQ(lp.variable_name(x), "x");

    lp.add_row({{x, 1.0}, {y, 2.0}}, Relation::kLe, 10.0);
    EXPECT_EQ(lp.row_count(), 1u);
    EXPECT_EQ(lp.row(0).terms.size(), 2u);
    EXPECT_DOUBLE_EQ(lp.row(0).rhs, 10.0);
}

TEST(LinearProgram, RejectsNegativeUpperBound) {
    LinearProgram lp;
    EXPECT_THROW(lp.add_variable(1.0, -1.0), std::invalid_argument);
}

TEST(LinearProgram, RejectsNanUpperBound) {
    LinearProgram lp;
    EXPECT_THROW(lp.add_variable(1.0, std::nan("")), std::invalid_argument);
    EXPECT_NO_THROW(lp.add_variable(1.0, kInfinity));
    EXPECT_EQ(lp.variable_count(), 1u);
}

TEST(LinearProgram, RejectsNonFiniteObjective) {
    LinearProgram lp;
    EXPECT_THROW(lp.add_variable(std::nan(""), 1.0), std::invalid_argument);
    EXPECT_THROW(lp.add_variable(kInfinity, 1.0), std::invalid_argument);
    EXPECT_THROW(lp.add_variable(-kInfinity, 1.0), std::invalid_argument);
    EXPECT_EQ(lp.variable_count(), 0u);
}

TEST(LinearProgram, SetBoundsRejectsNan) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0, 1.0);
    EXPECT_THROW(lp.set_bounds(x, std::nan(""), std::nan("")), std::invalid_argument);
    EXPECT_THROW(lp.set_bounds(x, 0.0, std::nan("")), std::invalid_argument);
    EXPECT_THROW(lp.set_bounds(x, std::nan(""), 1.0), std::invalid_argument);
    EXPECT_THROW(lp.set_bounds(x, kInfinity, kInfinity), std::invalid_argument);
    EXPECT_DOUBLE_EQ(lp.lower_bound(x), 0.0);
    EXPECT_DOUBLE_EQ(lp.upper_bound(x), 1.0);
    lp.set_bounds(x, 0.5, kInfinity);
    EXPECT_DOUBLE_EQ(lp.upper_bound(x), kInfinity);
}

TEST(LinearProgram, RejectsBadRows) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0);
    EXPECT_THROW(lp.add_row({{x, 1.0}, {x, 2.0}}, Relation::kLe, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(lp.add_row({{5, 1.0}}, Relation::kLe, 1.0), std::invalid_argument);
    EXPECT_THROW(lp.add_row({{x, kInfinity}}, Relation::kLe, 1.0), std::invalid_argument);
    EXPECT_THROW(lp.add_row({{x, 1.0}}, Relation::kLe, kInfinity), std::invalid_argument);
}

TEST(LinearProgram, SetBounds) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0, 1.0);
    lp.set_bounds(x, 1.0, 1.0);
    EXPECT_DOUBLE_EQ(lp.lower_bound(x), 1.0);
    EXPECT_DOUBLE_EQ(lp.upper_bound(x), 1.0);
    EXPECT_THROW(lp.set_bounds(x, -1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(lp.set_bounds(x, 2.0, 1.0), std::invalid_argument);
    EXPECT_THROW(lp.set_bounds(9, 0.0, 1.0), std::invalid_argument);
}

TEST(LinearProgram, ObjectiveValue) {
    LinearProgram lp;
    lp.add_variable(3.0);
    lp.add_variable(-2.0);
    EXPECT_DOUBLE_EQ(lp.objective_value({2.0, 1.0}), 4.0);
    EXPECT_THROW((void)lp.objective_value({1.0}), std::invalid_argument);
}

TEST(LinearProgram, MaxViolationFeasiblePoint) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0, 5.0);
    lp.add_row({{x, 1.0}}, Relation::kLe, 3.0);
    EXPECT_DOUBLE_EQ(lp.max_violation({2.0}), 0.0);
}

TEST(LinearProgram, MaxViolationDetectsEachKind) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0, 5.0);
    lp.add_row({{x, 1.0}}, Relation::kLe, 3.0);
    lp.add_row({{x, 1.0}}, Relation::kGe, 1.0);
    lp.add_row({{x, 1.0}}, Relation::kEq, 2.0);
    EXPECT_NEAR(lp.max_violation({4.0}), 2.0, 1e-12);   // kLe by 1, kEq by 2
    EXPECT_NEAR(lp.max_violation({0.5}), 1.5, 1e-12);   // kGe by 0.5, kEq by 1.5
    EXPECT_NEAR(lp.max_violation({6.0}), 4.0, 1e-12);   // bound by 1, kLe by 3, kEq by 4
}

}  // namespace
}  // namespace vnfr::opt
