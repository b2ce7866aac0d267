// Offline benchmark solvers (the paper's CPLEX runs).
//
// Builds the paper's ILP formulations and solves them with the in-repo
// simplex + branch-and-bound:
//   * on-site: Eqs. (4)-(8)   — objective (6), capacity (4), assignment (5),
//     with X_i = sum_j Y_ij substituted: each Y_ij earns p_i and (5) becomes
//     the packing row sum_j Y_ij <= 1. With binary Y that row keeps
//     sum_j Y_ij in {0, 1}, so the ILP is unchanged; the LP has only <=
//     rows with rhs >= 0 and starts from the feasible slack basis.
//   * off-site: Eqs. (48)-(53) — the log-linearized reformulation of the
//     INP, with the per-request lower bound L_i = sum_j ln(1 - r_f r_cj)
//     (tighter than, and equivalent to, the paper's global constant L).
//
// The LP relaxation optimum is always reported: it upper-bounds the ILP
// optimum, so online-vs-OPT ratios computed against it are conservative.
// Branch-and-bound is optionally run on top (exact when it proves the tree,
// best-incumbent otherwise).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "opt/branch_and_bound.hpp"
#include "opt/lp.hpp"
#include "opt/simplex.hpp"

namespace vnfr::core {

enum class Scheme { kOnsite, kOffsite };

/// The ILP/LP model of an instance plus the variable bookkeeping needed to
/// interpret a solution vector.
struct OfflineModel {
    opt::LinearProgram lp;
    /// x_vars[i] is the column of X_i (off-site only: the on-site model
    /// substitutes X_i = sum_j Y_ij and leaves this empty).
    std::vector<std::size_t> x_vars;
    /// y_vars[i][j] is the column of Y_ij, or nullopt when placing request
    /// i on cloudlet j is a priori infeasible (on-site: r(c_j) <= R_i).
    std::vector<std::vector<std::optional<std::size_t>>> y_vars;
    /// The ILP's binary variables: all X and Y columns off-site, the Y
    /// columns on-site.
    std::vector<std::size_t> binaries;
};

OfflineModel build_onsite_model(const Instance& instance);

/// `anchor_rejected_requests` controls the paper's rows (51), which force
/// Y_ij = 0 whenever X_i = 0. They pin down the *solution* (no spurious
/// placements for rejected requests) but do not change the optimal *value*:
/// any feasible solution can drop a rejected request's placements without
/// affecting revenue or feasibility. They also make the LP heavily
/// degenerate (each pairs up with its row (50) over identical
/// coefficients), slowing the simplex by >20x at evaluation sizes — so the
/// value-only offline solver omits them.
OfflineModel build_offsite_model(const Instance& instance,
                                 bool anchor_rejected_requests = true);

struct OfflineConfig {
    /// When false only the LP relaxation is solved.
    bool run_ilp{true};
    opt::BnbOptions bnb{};
    opt::SimplexOptions lp{};
};

struct OfflineResult {
    bool lp_optimal{false};
    double lp_bound{0};  ///< LP relaxation optimum (upper bound on OPT)
    bool has_ilp{false};
    double ilp_value{0};  ///< best integral revenue found
    bool ilp_proven{false};
    std::size_t bnb_nodes{0};
};

/// Solves the offline problem for `instance` under `scheme`.
OfflineResult solve_offline(const Instance& instance, Scheme scheme,
                            const OfflineConfig& config = {});

}  // namespace vnfr::core
