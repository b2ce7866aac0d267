#include "opt/presolve.hpp"

#include <stdexcept>

#include "common/contracts.hpp"

namespace vnfr::opt {

namespace {

constexpr double kTol = 1e-9;

/// Working copy of the model that supports in-place bound tightening and
/// row/column deactivation.
struct Work {
    std::vector<double> objective;
    std::vector<double> lower;
    std::vector<double> upper;
    std::vector<char> var_active;
    struct WorkRow {
        std::vector<std::pair<std::size_t, double>> terms;
        Relation relation;
        double rhs;
        bool active{true};
    };
    std::vector<WorkRow> rows;
};

}  // namespace

std::vector<double> PresolveResult::restore(const std::vector<double>& reduced_x) const {
    if (reduced_x.size() != kept.size())
        throw std::invalid_argument("PresolveResult::restore: size mismatch");
    std::vector<double> x(is_fixed.size(), 0.0);
    for (std::size_t j = 0; j < is_fixed.size(); ++j) {
        if (is_fixed[j]) x[j] = fixed_values[j];
    }
    for (std::size_t r = 0; r < kept.size(); ++r) x[kept[r]] = reduced_x[r];
    return x;
}

PresolveResult presolve(const LinearProgram& lp) {
    const std::size_t n = lp.variable_count();
    Work work;
    work.objective.resize(n);
    work.lower.resize(n);
    work.upper.resize(n);
    work.var_active.assign(n, 1);
    for (std::size_t j = 0; j < n; ++j) {
        work.objective[j] = lp.objective_coefficient(j);
        work.lower[j] = lp.lower_bound(j);
        work.upper[j] = lp.upper_bound(j);
    }
    work.rows.reserve(lp.row_count());
    for (std::size_t k = 0; k < lp.row_count(); ++k) {
        const Row& row = lp.row(k);
        work.rows.push_back(Work::WorkRow{row.terms, row.relation, row.rhs, true});
    }

    PresolveResult result;
    result.is_fixed.assign(n, 0);
    result.fixed_values.assign(n, 0.0);

    const auto fix_variable = [&](std::size_t var, double value) -> bool {
        if (value < work.lower[var] - kTol || value > work.upper[var] + kTol) return false;
        work.var_active[var] = 0;
        result.is_fixed[var] = 1;
        result.fixed_values[var] = value;
        result.objective_offset += work.objective[var] * value;
        // Substitute into every row.
        for (auto& row : work.rows) {
            if (!row.active) continue;
            for (auto& [v, coeff] : row.terms) {
                if (v == var) {
                    row.rhs -= coeff * value;
                    coeff = 0.0;
                }
            }
        }
        return true;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        // Fixed variables (lower == upper).
        for (std::size_t j = 0; j < n; ++j) {
            if (!work.var_active[j]) continue;
            if (work.upper[j] - work.lower[j] <= kTol) {
                if (!fix_variable(j, work.lower[j])) {
                    result.infeasible = true;
                    return result;
                }
                changed = true;
            }
        }
        for (auto& row : work.rows) {
            if (!row.active) continue;
            // Count live terms.
            std::size_t live = 0;
            std::size_t live_var = 0;
            double live_coeff = 0.0;
            for (const auto& [v, coeff] : row.terms) {
                // Exact sparsity test: fix_variable() zeroes coefficients
                // literally, so tolerance would misclassify tiny live terms.
                if (coeff != 0.0 && work.var_active[v]) {  // vnfr-lint: allow(float-eq) sparsity test on literally-zeroed coefficients
                    ++live;
                    live_var = v;
                    live_coeff = coeff;
                }
            }
            if (live == 0) {
                // Empty row: trivially satisfied or infeasible.
                if (!empty_row_holds(row.relation, row.rhs)) {
                    result.infeasible = true;
                    return result;
                }
                row.active = false;
                ++result.removed_rows;
                changed = true;
                continue;
            }
            if (live == 1) {
                // Singleton row -> bound on the remaining variable.
                VNFR_CHECK(live_coeff != 0.0,  // vnfr-lint: allow(float-eq) invariant check mirrors the exact sparsity test
                           "singleton row with zero live coefficient");
                const double bound = row.rhs / live_coeff;
                Relation rel = row.relation;
                if (live_coeff < 0.0) {
                    if (rel == Relation::kLe) rel = Relation::kGe;
                    else if (rel == Relation::kGe) rel = Relation::kLe;
                }
                bool ok = true;
                switch (rel) {
                    case Relation::kLe:
                        if (bound < work.lower[live_var] - kTol) ok = false;
                        else work.upper[live_var] = std::min(work.upper[live_var], bound);
                        break;
                    case Relation::kGe:
                        if (bound > work.upper[live_var] + kTol) ok = false;
                        // Lower bounds below 0 are vacuous (x >= 0 anyway).
                        else if (bound > work.lower[live_var]) {
                            work.lower[live_var] = std::max(0.0, bound);
                        }
                        break;
                    case Relation::kEq:
                        ok = fix_variable(live_var, bound);
                        break;
                }
                if (!ok) {
                    result.infeasible = true;
                    return result;
                }
                row.active = false;
                ++result.removed_rows;
                changed = true;
            }
        }
    }

    // Assemble the reduced program.
    std::vector<std::size_t> new_index(n, static_cast<std::size_t>(-1));
    for (std::size_t j = 0; j < n; ++j) {
        if (!work.var_active[j]) {
            ++result.removed_variables;
            continue;
        }
        new_index[j] = result.reduced.add_variable(work.objective[j], work.upper[j],
                                                   lp.variable_name(j));
        result.reduced.set_bounds(new_index[j], work.lower[j], work.upper[j]);
        result.kept.push_back(j);
    }
    for (const auto& row : work.rows) {
        if (!row.active) continue;
        std::vector<std::pair<std::size_t, double>> terms;
        for (const auto& [v, coeff] : row.terms) {
            if (coeff != 0.0 && work.var_active[v]) {  // vnfr-lint: allow(float-eq) sparsity test on literally-zeroed coefficients
                VNFR_DCHECK(new_index[v] != static_cast<std::size_t>(-1),
                            "active variable ", v, " missing from the reduced program");
                terms.emplace_back(new_index[v], coeff);
            }
        }
        result.reduced.add_row(std::move(terms), row.relation, row.rhs);
    }
    return result;
}

}  // namespace vnfr::opt
