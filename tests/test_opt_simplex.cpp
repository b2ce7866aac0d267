#include "opt/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "opt/lp.hpp"

namespace vnfr::opt {
namespace {

TEST(Simplex, EmptyProgram) {
    LinearProgram lp;
    const LpSolution sol = solve_lp(lp);
    EXPECT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_DOUBLE_EQ(sol.objective, 0.0);
}

TEST(Simplex, EmptyProgramWithUnsatisfiableRowIsInfeasible) {
    for (const auto& [relation, rhs] : {std::pair{Relation::kGe, 1.0},
                                        std::pair{Relation::kLe, -1.0},
                                        std::pair{Relation::kEq, 0.5}}) {
        LinearProgram lp;
        lp.add_row({}, Relation::kLe, 2.0);
        lp.add_row({}, relation, rhs);
        EXPECT_EQ(solve_lp(lp).status, SolveStatus::kInfeasible);
    }
}

TEST(Simplex, EmptyProgramReturnsOneDualPerRow) {
    LinearProgram lp;
    lp.add_row({}, Relation::kLe, 1.0);
    lp.add_row({}, Relation::kEq, 0.0);
    lp.add_row({}, Relation::kGe, -3.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_DOUBLE_EQ(sol.objective, 0.0);
    EXPECT_EQ(sol.duals, std::vector<double>(3, 0.0));
}

TEST(Simplex, RejectsMalformedOptions) {
    // max x s.t. x <= 1: with a NaN tolerance every pricing comparison is
    // false and the solve would report a wrong optimum of 0.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0);
    lp.add_row({{x, 1.0}}, Relation::kLe, 1.0);
    for (const double tolerance : {std::nan(""), kInfinity, 0.0, -1e-8}) {
        SimplexOptions options;
        options.tolerance = tolerance;
        EXPECT_THROW(solve_lp(lp, options), std::invalid_argument) << tolerance;
    }
    SimplexOptions options;
    options.refactor_interval = 0;
    EXPECT_THROW(solve_lp(lp, options), std::invalid_argument);
    options.refactor_interval = 1;
    EXPECT_NEAR(solve_lp(lp, options).objective, 1.0, 1e-12);
}

TEST(Simplex, ClassicTextbookProblem) {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18. Optimum 36 at (2,6).
    LinearProgram lp;
    const std::size_t x = lp.add_variable(3.0);
    const std::size_t y = lp.add_variable(5.0);
    lp.add_row({{x, 1.0}}, Relation::kLe, 4.0);
    lp.add_row({{y, 2.0}}, Relation::kLe, 12.0);
    lp.add_row({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 36.0, 1e-8);
    EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
    EXPECT_NEAR(sol.x[y], 6.0, 1e-8);
}

TEST(Simplex, ClassicTextbookDuals) {
    // Known dual optimum for the problem above: (0, 1.5, 1).
    LinearProgram lp;
    const std::size_t x = lp.add_variable(3.0);
    const std::size_t y = lp.add_variable(5.0);
    lp.add_row({{x, 1.0}}, Relation::kLe, 4.0);
    lp.add_row({{y, 2.0}}, Relation::kLe, 12.0);
    lp.add_row({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    ASSERT_EQ(sol.duals.size(), 3u);
    EXPECT_NEAR(sol.duals[0], 0.0, 1e-8);
    EXPECT_NEAR(sol.duals[1], 1.5, 1e-8);
    EXPECT_NEAR(sol.duals[2], 1.0, 1e-8);
}

TEST(Simplex, UpperBoundsBindWithoutRows) {
    // max x + y with x <= 2 (bound), x + y <= 3: optimum 3.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(2.0, 2.0);
    const std::size_t y = lp.add_variable(1.0, 2.0);
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kLe, 3.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 5.0, 1e-8);  // x=2 (coeff 2) + y=1
    EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
    EXPECT_NEAR(sol.x[y], 1.0, 1e-8);
}

TEST(Simplex, LowerBoundsShiftCorrectly) {
    // max -x s.t. x >= 2 via bounds: optimum -2 at x = 2.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(-1.0, 10.0);
    lp.set_bounds(x, 2.0, 10.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, -2.0, 1e-8);
    EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
}

TEST(Simplex, FixedVariable) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(5.0, 1.0);
    const std::size_t y = lp.add_variable(1.0, 1.0);
    lp.set_bounds(x, 1.0, 1.0);  // fixed to 1
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kLe, 1.5);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.x[x], 1.0, 1e-8);
    EXPECT_NEAR(sol.x[y], 0.5, 1e-8);
}

TEST(Simplex, EqualityConstraints) {
    // max x + 2y s.t. x + y = 4, y <= 3. Optimum: y=3, x=1 -> 7.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0);
    const std::size_t y = lp.add_variable(2.0, 3.0);
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kEq, 4.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 7.0, 1e-8);
    EXPECT_NEAR(sol.x[x], 1.0, 1e-8);
    EXPECT_NEAR(sol.x[y], 3.0, 1e-8);
}

TEST(Simplex, GreaterEqualConstraints) {
    // min x + y (as max of negative) s.t. x + 2y >= 4, 3x + y >= 6.
    // Optimum of min: x = 1.6, y = 1.2, value 2.8.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(-1.0);
    const std::size_t y = lp.add_variable(-1.0);
    lp.add_row({{x, 1.0}, {y, 2.0}}, Relation::kGe, 4.0);
    lp.add_row({{x, 3.0}, {y, 1.0}}, Relation::kGe, 6.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, -2.8, 1e-8);
    EXPECT_NEAR(sol.x[x], 1.6, 1e-8);
    EXPECT_NEAR(sol.x[y], 1.2, 1e-8);
}

TEST(Simplex, NegativeRhsNormalization) {
    // x - y <= -1 (i.e. y >= x + 1), max x with y <= 3: x = 2.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0);
    const std::size_t y = lp.add_variable(0.0, 3.0);
    lp.add_row({{x, 1.0}, {y, -1.0}}, Relation::kLe, -1.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0);
    lp.add_row({{x, 1.0}}, Relation::kLe, 1.0);
    lp.add_row({{x, 1.0}}, Relation::kGe, 2.0);
    EXPECT_EQ(solve_lp(lp).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEquality) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0, 1.0);
    const std::size_t y = lp.add_variable(1.0, 1.0);
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kEq, 5.0);
    EXPECT_EQ(solve_lp(lp).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0);
    const std::size_t y = lp.add_variable(0.0);
    lp.add_row({{x, 1.0}, {y, -1.0}}, Relation::kLe, 1.0);
    EXPECT_EQ(solve_lp(lp).status, SolveStatus::kUnbounded);
}

TEST(Simplex, RedundantEqualityRows) {
    // Duplicate equality rows leave a zero-level artificial; the solve must
    // still finish and be correct.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0, 10.0);
    const std::size_t y = lp.add_variable(1.0, 10.0);
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kEq, 5.0);
    lp.add_row({{x, 2.0}, {y, 2.0}}, Relation::kEq, 10.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 5.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
    // Klee-Minty-flavoured degeneracy trigger: many redundant constraints
    // through the same vertex.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0);
    const std::size_t y = lp.add_variable(1.0);
    lp.add_row({{x, 1.0}}, Relation::kLe, 1.0);
    lp.add_row({{y, 1.0}}, Relation::kLe, 1.0);
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kLe, 2.0);
    lp.add_row({{x, 2.0}, {y, 1.0}}, Relation::kLe, 3.0);
    lp.add_row({{x, 1.0}, {y, 2.0}}, Relation::kLe, 3.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

TEST(Simplex, ZeroObjective) {
    LinearProgram lp;
    const std::size_t x = lp.add_variable(0.0, 1.0);
    lp.add_row({{x, 1.0}}, Relation::kLe, 1.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_DOUBLE_EQ(sol.objective, 0.0);
}

TEST(Simplex, NoConstraintsBoundFlipOnly) {
    // max 2x - y with 0 <= x <= 5, 0 <= y <= 3 and no rows: pure bound
    // flips, empty basis.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(2.0, 5.0);
    const std::size_t y = lp.add_variable(-1.0, 3.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 10.0, 1e-9);
    EXPECT_NEAR(sol.x[x], 5.0, 1e-9);
    EXPECT_NEAR(sol.x[y], 0.0, 1e-9);
}

TEST(Simplex, NoConstraintsUnboundedAbove) {
    LinearProgram lp;
    lp.add_variable(1.0);  // ub = infinity, no rows
    EXPECT_EQ(solve_lp(lp).status, SolveStatus::kUnbounded);
}

TEST(Simplex, ManyUpperBoundsAllBinding) {
    // max sum x_j, x_j <= 1 (bounds), sum x_j <= 10 with 6 variables: the
    // row is slack, all six sit at their upper bounds.
    LinearProgram lp;
    std::vector<std::pair<std::size_t, double>> row;
    for (int j = 0; j < 6; ++j) row.emplace_back(lp.add_variable(1.0, 1.0), 1.0);
    lp.add_row(std::move(row), Relation::kLe, 10.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 6.0, 1e-9);
    for (const double v : sol.x) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Simplex, BasicVariableLeavesAtUpperBound) {
    // max 3x + y with x + y <= 4, x <= 3, y <= 3. Optimum x=3, y=1 -> 10;
    // reaching it forces a leave-at-upper-bound pivot.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(3.0, 3.0);
    const std::size_t y = lp.add_variable(1.0, 3.0);
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kLe, 4.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 10.0, 1e-9);
    EXPECT_NEAR(sol.x[x], 3.0, 1e-9);
    EXPECT_NEAR(sol.x[y], 1.0, 1e-9);
}

TEST(Simplex, FixedVariableInsideEquality) {
    // x fixed at 2 through bounds, x + y = 5 -> y = 3.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(0.0, 4.0);
    const std::size_t y = lp.add_variable(1.0, 10.0);
    lp.set_bounds(x, 2.0, 2.0);
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kEq, 5.0);
    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
    EXPECT_NEAR(sol.x[y], 3.0, 1e-9);
}

TEST(Simplex, InfeasibleBecauseOfUpperBounds) {
    // x + y >= 5 but both capped at 2.
    LinearProgram lp;
    const std::size_t x = lp.add_variable(1.0, 2.0);
    const std::size_t y = lp.add_variable(1.0, 2.0);
    lp.add_row({{x, 1.0}, {y, 1.0}}, Relation::kGe, 5.0);
    EXPECT_EQ(solve_lp(lp).status, SolveStatus::kInfeasible);
}

// Property: bounded-variable handling agrees with modelling the same upper
// bounds as explicit rows, across random instances.
class SimplexBoundsEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SimplexBoundsEquivalence, NativeBoundsMatchExplicitRows) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2111 + 17);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 5));

    LinearProgram with_bounds;
    LinearProgram with_rows;
    std::vector<double> ubs(n);
    for (std::size_t j = 0; j < n; ++j) {
        const double c = rng.uniform(-2.0, 5.0);
        ubs[j] = rng.uniform(0.5, 4.0);
        with_bounds.add_variable(c, ubs[j]);
        with_rows.add_variable(c);
    }
    for (std::size_t j = 0; j < n; ++j) {
        with_rows.add_row({{j, 1.0}}, Relation::kLe, ubs[j]);
    }
    for (std::size_t i = 0; i < m; ++i) {
        std::vector<std::pair<std::size_t, double>> terms;
        for (std::size_t j = 0; j < n; ++j) {
            if (rng.bernoulli(0.7)) terms.emplace_back(j, rng.uniform(0.2, 3.0));
        }
        if (terms.empty()) terms.emplace_back(0, 1.0);
        const double rhs = rng.uniform(1.0, 8.0);
        with_bounds.add_row(terms, Relation::kLe, rhs);
        with_rows.add_row(terms, Relation::kLe, rhs);
    }
    const LpSolution a = solve_lp(with_bounds);
    const LpSolution b = solve_lp(with_rows);
    ASSERT_EQ(a.status, SolveStatus::kOptimal);
    ASSERT_EQ(b.status, SolveStatus::kOptimal);
    EXPECT_NEAR(a.objective, b.objective, 1e-6 * (1.0 + std::fabs(b.objective)));
    EXPECT_LE(with_bounds.max_violation(a.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexBoundsEquivalence, ::testing::Range(0, 20));

// Property: on random packing LPs (max c'x, Ax <= b, x >= 0), the solution
// must be feasible and come with a dual certificate of optimality:
// y >= 0, A'y >= c, and b'y == c'x (strong duality).
class SimplexRandomPacking : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomPacking, OptimalityCertificate) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 12));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 10));

    LinearProgram lp;
    std::vector<double> c(n);
    for (std::size_t j = 0; j < n; ++j) {
        c[j] = rng.uniform(0.1, 5.0);
        lp.add_variable(c[j]);
    }
    std::vector<std::vector<double>> a(m, std::vector<double>(n, 0.0));
    std::vector<double> b(m);
    for (std::size_t i = 0; i < m; ++i) {
        std::vector<std::pair<std::size_t, double>> terms;
        for (std::size_t j = 0; j < n; ++j) {
            if (rng.bernoulli(0.6)) {
                a[i][j] = rng.uniform(0.1, 3.0);
                terms.emplace_back(j, a[i][j]);
            }
        }
        b[i] = rng.uniform(1.0, 10.0);
        if (terms.empty()) terms.emplace_back(0, a[i][0] = 1.0);
        lp.add_row(std::move(terms), Relation::kLe, b[i]);
    }
    // Ensure boundedness: cap every variable by a generous box row.
    {
        std::vector<std::pair<std::size_t, double>> box;
        std::vector<double> ones(n, 1.0);
        for (std::size_t j = 0; j < n; ++j) box.emplace_back(j, 1.0);
        a.push_back(ones);
        b.push_back(100.0);
        lp.add_row(std::move(box), Relation::kLe, 100.0);
    }

    const LpSolution sol = solve_lp(lp);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_LE(lp.max_violation(sol.x), 1e-6);

    ASSERT_EQ(sol.duals.size(), a.size());
    double by = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(sol.duals[i], -1e-7) << "dual sign";
        by += sol.duals[i] * b[i];
    }
    for (std::size_t j = 0; j < n; ++j) {
        double aty = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) aty += sol.duals[i] * a[i][j];
        EXPECT_GE(aty, c[j] - 1e-6) << "dual feasibility, column " << j;
    }
    EXPECT_NEAR(by, sol.objective, 1e-6 * (1.0 + std::fabs(by))) << "strong duality";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomPacking, ::testing::Range(0, 25));

// Property: reinverting the basis before every pivot changes neither the
// status nor the optimum on random programs that mix <=, >= and = rows,
// finite and infinite upper bounds and shifted lower bounds, so the
// reinversion and its surplus/artificial columns are exercised even where
// the default interval is never reached.
class SimplexReinversion : public ::testing::TestWithParam<int> {};

TEST_P(SimplexReinversion, EveryPivotMatchesDefaultInterval) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 20));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 15));
    LinearProgram lp;
    for (std::size_t j = 0; j < n; ++j) {
        const double ub = rng.bernoulli(0.3) ? kInfinity : rng.uniform(0.5, 5.0);
        const std::size_t v = lp.add_variable(rng.uniform(-2.0, 5.0), ub);
        if (rng.bernoulli(0.2)) lp.set_bounds(v, std::min(ub, rng.uniform(0.0, 1.0)), ub);
    }
    for (std::size_t i = 0; i < m; ++i) {
        std::vector<std::pair<std::size_t, double>> terms;
        for (std::size_t j = 0; j < n; ++j) {
            if (rng.bernoulli(0.4)) terms.emplace_back(j, rng.uniform(-1.0, 3.0));
        }
        const double u = rng.uniform(0.0, 1.0);
        const Relation rel = u < 0.7 ? Relation::kLe : u < 0.85 ? Relation::kGe : Relation::kEq;
        lp.add_row(std::move(terms), rel,
                   rel == Relation::kLe ? rng.uniform(-0.5, 10.0) : rng.uniform(-2.0, 2.0));
    }
    std::vector<std::pair<std::size_t, double>> box;
    for (std::size_t j = 0; j < n; ++j) box.emplace_back(j, 1.0);
    lp.add_row(std::move(box), Relation::kLe, 50.0);

    SimplexOptions every_pivot;
    every_pivot.refactor_interval = 1;
    const LpSolution a = solve_lp(lp);
    const LpSolution b = solve_lp(lp, every_pivot);
    ASSERT_EQ(a.status, b.status);
    if (a.status != SolveStatus::kOptimal) return;
    EXPECT_NEAR(a.objective, b.objective, 1e-9 * (1.0 + std::fabs(a.objective)));
    EXPECT_LE(lp.max_violation(b.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexReinversion, ::testing::Range(0, 40));

// The reduced costs are kept across pivots and updated from the pivot row;
// they are recomputed at every reinversion and before optimality is
// declared. These tests solve each program with a reinversion before every
// pivot (d recomputed each time), at the default interval, and with an
// interval no solve reaches (d maintained from the phase's start to its
// end), under Dantzig's rule and under Bland's from the first degenerate
// pivot on. None of these programs needs 100 pivots; the cap turns a
// pricing that cycles into a failed status instead of a long run.
std::vector<SimplexOptions> pricing_variants() {
    std::vector<SimplexOptions> variants;
    for (const std::size_t interval : {std::size_t{1}, SimplexOptions{}.refactor_interval,
                                       std::size_t{1000000}}) {
        for (const std::size_t degenerate_limit : {SimplexOptions{}.degenerate_limit,
                                                   std::size_t{0}}) {
            SimplexOptions options;
            options.max_iterations = 10000;
            options.refactor_interval = interval;
            options.degenerate_limit = degenerate_limit;
            variants.push_back(options);
        }
    }
    return variants;
}

/// Checks that an optimal `sol` proves itself: each row's dual has the
/// sign of its relation, each column's reduced cost c_j - a_j'y has the
/// sign its bound allows (<= 0 at a lower bound, >= 0 at an upper bound,
/// 0 strictly between), and the dual objective b'y + sum_j max over
/// [l_j, u_j] of (c_j - a_j'y) x_j equals c'x.
void expect_optimality_certificate(const LinearProgram& lp, const LpSolution& sol) {
    constexpr double kTol = 1e-6;
    ASSERT_EQ(sol.duals.size(), lp.row_count());
    ASSERT_EQ(sol.x.size(), lp.variable_count());
    std::vector<double> reduced(lp.variable_count());
    for (std::size_t j = 0; j < lp.variable_count(); ++j) {
        reduced[j] = lp.objective_coefficient(j);
    }
    double dual_objective = 0.0;
    for (std::size_t k = 0; k < lp.row_count(); ++k) {
        const Row& row = lp.row(k);
        if (row.relation == Relation::kLe) {
            EXPECT_GE(sol.duals[k], -kTol) << "row " << k;
        } else if (row.relation == Relation::kGe) {
            EXPECT_LE(sol.duals[k], kTol) << "row " << k;
        }
        dual_objective += sol.duals[k] * row.rhs;
        for (const auto& [var, coeff] : row.terms) reduced[var] -= sol.duals[k] * coeff;
    }
    for (std::size_t j = 0; j < lp.variable_count(); ++j) {
        const double lo = lp.lower_bound(j);
        const double up = lp.upper_bound(j);
        const double x = sol.x[j];
        const bool at_lower = x <= lo + kTol;
        const bool at_upper = up != kInfinity && x >= up - kTol;
        if (!at_upper) {
            EXPECT_LE(reduced[j], kTol) << "column " << j << " can rise";
        }
        if (!at_lower) {
            EXPECT_GE(reduced[j], -kTol) << "column " << j << " can fall";
        }
        if (reduced[j] > 0.0) {
            dual_objective += reduced[j] * (up == kInfinity ? x : up);
        } else {
            dual_objective += reduced[j] * lo;
        }
    }
    EXPECT_NEAR(dual_objective, sol.objective, kTol * (1.0 + std::fabs(sol.objective)))
        << "strong duality";
}

/// Solves `lp` with every pricing variant; all must agree with the first
/// on the status and, when optimal, on the objective within 1e-9
/// relative, and come with a certificate.
void expect_variants_agree(const LinearProgram& lp) {
    const std::vector<SimplexOptions> variants = pricing_variants();
    const LpSolution reference = solve_lp(lp, variants.front());
    for (const SimplexOptions& options : variants) {
        SCOPED_TRACE(::testing::Message() << "refactor_interval " << options.refactor_interval
                                          << ", degenerate_limit " << options.degenerate_limit);
        const LpSolution sol = solve_lp(lp, options);
        ASSERT_EQ(sol.status, reference.status);
        if (sol.status != SolveStatus::kOptimal) continue;
        EXPECT_NEAR(sol.objective, reference.objective,
                    1e-9 * (1.0 + std::fabs(reference.objective)));
        EXPECT_LE(lp.max_violation(sol.x), 1e-6);
        expect_optimality_certificate(lp, sol);
    }
}

// Property: on random programs that mix <=, >= and = rows, finite and
// infinite upper bounds and shifted lower bounds, every pricing variant
// reaches the same status and optimum, with a certificate. Each program is
// built around a point x0 that satisfies it, half of whose coordinates sit
// on their lower bound, and a third of the inequality rows are tight at x0,
// so the programs are feasible and many pivots are degenerate; one in six
// programs gets an = row that x0 misses, which may make it infeasible.
class SimplexPricing : public ::testing::TestWithParam<int> {};

TEST_P(SimplexPricing, MaintainedReducedCostsMatchRecomputed) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 11);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 30));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 20));
    LinearProgram lp;
    std::vector<double> x0(n);
    double x0_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const double ub = rng.bernoulli(0.4) ? kInfinity : rng.uniform(0.5, 5.0);
        const std::size_t v = lp.add_variable(rng.uniform(-2.0, 5.0), ub);
        if (rng.bernoulli(0.25)) lp.set_bounds(v, std::min(ub, rng.uniform(0.0, 1.0)), ub);
        const double lo = lp.lower_bound(v);
        x0[j] = rng.bernoulli(0.5) ? lo : rng.uniform(lo, std::min(ub, lo + 3.0));
        x0_sum += x0[j];
    }
    const bool perturb = rng.bernoulli(1.0 / 6.0);
    for (std::size_t i = 0; i < m; ++i) {
        std::vector<std::pair<std::size_t, double>> terms;
        double at_x0 = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (!rng.bernoulli(0.35)) continue;
            terms.emplace_back(j, rng.uniform(-1.0, 3.0));
            at_x0 += terms.back().second * x0[j];
        }
        const double u = rng.uniform(0.0, 1.0);
        const Relation rel = u < 0.6 ? Relation::kLe : u < 0.8 ? Relation::kGe : Relation::kEq;
        const double slack = rng.bernoulli(1.0 / 3.0) ? 0.0 : rng.uniform(0.0, 5.0);
        double rhs = rel == Relation::kLe   ? at_x0 + slack
                     : rel == Relation::kGe ? at_x0 - slack
                                            : at_x0;
        if (perturb && i == 0) {
            rhs = rng.uniform(-2.0, 2.0);
            lp.add_row(std::move(terms), Relation::kEq, rhs);
            continue;
        }
        lp.add_row(std::move(terms), rel, rhs);
    }
    std::vector<std::pair<std::size_t, double>> box;
    for (std::size_t j = 0; j < n; ++j) box.emplace_back(j, 1.0);
    lp.add_row(std::move(box), Relation::kLe, std::max(60.0, x0_sum + 1.0));
    expect_variants_agree(lp);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexPricing, ::testing::Range(0, 60));

// Beale's example, which cycles under Dantzig's rule with the textbook
// tie-break: its first pivot is degenerate (both rows have rhs 0), so with
// degenerate_limit 0 the rest of the solve prices by Bland's rule.
TEST(SimplexPricingCases, BlandsRuleOnBealesCyclingExample) {
    LinearProgram lp;
    const std::size_t x4 = lp.add_variable(0.75);
    const std::size_t x5 = lp.add_variable(-20.0);
    const std::size_t x6 = lp.add_variable(0.5);
    const std::size_t x7 = lp.add_variable(-6.0);
    lp.add_row({{x4, 0.25}, {x5, -8.0}, {x6, -1.0}, {x7, 9.0}}, Relation::kLe, 0.0);
    lp.add_row({{x4, 0.5}, {x5, -12.0}, {x6, -0.5}, {x7, 3.0}}, Relation::kLe, 0.0);
    lp.add_row({{x6, 1.0}}, Relation::kLe, 1.0);
    for (const SimplexOptions& options : pricing_variants()) {
        const LpSolution sol = solve_lp(lp, options);
        ASSERT_EQ(sol.status, SolveStatus::kOptimal);
        EXPECT_NEAR(sol.objective, 1.25, 1e-9);
        expect_optimality_certificate(lp, sol);
    }
}

// Rows 0 and 1 are = rows with rhs 0 and negate each other, so phase 1
// starts optimal with both artificials basic at 0 and no column priced in.
// drive_out_artificials swaps x0 in for row 0's artificial; row 1 is then
// redundant, so its artificial stays basic, barred from entering and at 0
// through phase 2.
TEST(SimplexPricingCases, DrivesOutAZeroLevelArtificial) {
    LinearProgram lp;
    const std::size_t x0 = lp.add_variable(1.0);
    const std::size_t x1 = lp.add_variable(1.0);
    const std::size_t x2 = lp.add_variable(3.0, 1.0);
    lp.add_row({{x0, 1.0}, {x1, -1.0}}, Relation::kEq, 0.0);
    lp.add_row({{x0, -1.0}, {x1, 1.0}}, Relation::kEq, 0.0);
    lp.add_row({{x0, 1.0}, {x1, 1.0}, {x2, 1.0}}, Relation::kLe, 4.0);
    for (const SimplexOptions& options : pricing_variants()) {
        const LpSolution sol = solve_lp(lp, options);
        ASSERT_EQ(sol.status, SolveStatus::kOptimal);
        EXPECT_NEAR(sol.objective, 6.0, 1e-9);
        EXPECT_NEAR(sol.x[x0], 1.5, 1e-9);
        EXPECT_NEAR(sol.x[x1], 1.5, 1e-9);
        EXPECT_NEAR(sol.x[x2], 1.0, 1e-9);
        EXPECT_LE(lp.max_violation(sol.x), 1e-9);
        expect_optimality_certificate(lp, sol);
    }
}

}  // namespace
}  // namespace vnfr::opt
