// Two-phase bounded-variable revised primal simplex over a product-form
// inverse.
//
// Solves LinearProgram instances (maximize form). Internally: shifts lower
// bounds to zero, keeps finite upper bounds as column bounds, normalizes
// rhs >= 0, and runs phase 1 (artificials) then phase 2; a program whose
// rows are all <= with rhs >= 0 starts from the slack basis and skips
// phase 1. B^-1 is a file of eta matrices, one per pivot, so FTRAN, BTRAN
// and a basis change cost the etas' nonzeros instead of m^2; the duals are
// updated per basis change with one BTRAN of rho_r = e_r^T B^-1. The
// reduced costs d are kept as a vector and updated from the pivot row,
// d_j -= (d_q / w_r) rho_r^T a_j, read off a row-major copy of the matrix
// over the rows where rho_r != 0, so pricing is one pass over d instead of
// one over every column of A. Every `refactor_interval` pivots the basis
// is reinverted (unit columns free, the others sparsest first on their
// largest unclaimed entry), which bounds both the eta file's length and
// numerical drift; d is recomputed from y there, at the start of each
// phase, and whenever the kept d finds no entering column, so optimality
// is declared only from recomputed values. Anti-cycling by switching to
// Bland's rule after a run of degenerate pivots.
//
// Scale target: a few thousand rows / ~10^4 columns — the offline LP
// relaxations of the paper's ILPs at the evaluation sizes (Section VI).
#pragma once

#include <cstddef>
#include <vector>

#include "opt/lp.hpp"

namespace vnfr::opt {

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct SimplexOptions {
    std::size_t max_iterations{200000};
    double tolerance{1e-8};
    /// Reinvert the basis every this many pivots (> 0). Each eta adds to
    /// every later FTRAN and BTRAN, so a short file pays for the rebuilds.
    std::size_t refactor_interval{64};
    /// Switch to Bland's rule after this many consecutive degenerate pivots.
    std::size_t degenerate_limit{64};
};

struct LpSolution {
    SolveStatus status{SolveStatus::kIterationLimit};
    double objective{0};          ///< in the user's maximize sense
    std::vector<double> x;        ///< one value per LinearProgram variable
    std::vector<double> duals;    ///< one per original row, maximize sign
                                  ///< convention (<= rows have duals >= 0)
    std::size_t iterations{0};
};

/// Solves `lp`. Never throws on infeasible/unbounded inputs (reported via
/// status); throws std::invalid_argument only on malformed models or
/// options (a tolerance that is not finite and positive, a zero
/// refactor_interval), and std::runtime_error on a singular basis.
LpSolution solve_lp(const LinearProgram& lp, const SimplexOptions& options = {});

}  // namespace vnfr::opt
