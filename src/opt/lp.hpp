// Linear program model shared by the simplex solver and branch-and-bound.
//
// Canonical user-facing form:
//     maximize  c^T x
//     s.t.      a_k^T x  (<= | >= | =)  b_k     for each row k
//               l_j <= x_j <= u_j               (l_j >= 0, u_j may be +inf)
//
// The paper's offline benchmark solves its ILPs with CPLEX; this module is
// that substitute. Variable bounds are first-class (X_i <= 1 everywhere in
// the paper's relaxations, and branch-and-bound fixes binaries by moving
// bounds) — the solver shifts lower bounds out and keeps upper bounds as
// column bounds.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace vnfr::opt {

enum class Relation { kLe, kGe, kEq };

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One sparse constraint row.
struct Row {
    std::vector<std::pair<std::size_t, double>> terms;  ///< (variable, coefficient)
    Relation relation{Relation::kLe};
    double rhs{0};
};

/// Whether a row with no terms, 0 (relation) rhs, holds to within 1e-9.
[[nodiscard]] bool empty_row_holds(Relation relation, double rhs);

class LinearProgram {
  public:
    /// Adds a variable with objective coefficient `objective` and bounds
    /// [0, upper]; returns its index. Throws on a negative or NaN upper
    /// bound and on a non-finite objective.
    std::size_t add_variable(double objective, double upper = kInfinity,
                             std::string name = {});

    /// Adds a constraint. Term variable indices must already exist; a
    /// variable may appear at most once per row. Throws otherwise.
    std::size_t add_row(std::vector<std::pair<std::size_t, double>> terms,
                        Relation relation, double rhs);

    [[nodiscard]] std::size_t variable_count() const { return objective_.size(); }
    [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

    [[nodiscard]] double objective_coefficient(std::size_t var) const;
    [[nodiscard]] double lower_bound(std::size_t var) const;
    [[nodiscard]] double upper_bound(std::size_t var) const;
    [[nodiscard]] const std::string& variable_name(std::size_t var) const;
    [[nodiscard]] const Row& row(std::size_t k) const;

    /// Set bounds; requires 0 <= lower <= upper with lower finite (upper may
    /// be kInfinity). Branch-and-bound fixes a binary to v by
    /// set_bounds(var, v, v).
    void set_bounds(std::size_t var, double lower, double upper);

    /// Evaluates c^T x.
    [[nodiscard]] double objective_value(const std::vector<double>& x) const;

    /// Max violation of rows and bounds at x (0 when feasible).
    [[nodiscard]] double max_violation(const std::vector<double>& x) const;

  private:
    std::vector<double> objective_;
    std::vector<double> lower_;
    std::vector<double> upper_;
    std::vector<std::string> names_;
    std::vector<Row> rows_;
};

}  // namespace vnfr::opt
