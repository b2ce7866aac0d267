#include "opt/lp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"

namespace vnfr::opt {

bool empty_row_holds(Relation relation, double rhs) {
    constexpr double kTol = 1e-9;
    switch (relation) {
        case Relation::kLe: return rhs >= -kTol;
        case Relation::kGe: return rhs <= kTol;
        case Relation::kEq: return std::fabs(rhs) <= kTol;
    }
    return false;
}

std::size_t LinearProgram::add_variable(double objective, double upper, std::string name) {
    if (std::isnan(upper) || upper < 0.0)
        throw std::invalid_argument("LinearProgram: negative or NaN upper bound");
    if (!std::isfinite(objective))
        throw std::invalid_argument("LinearProgram: non-finite objective coefficient");
    objective_.push_back(objective);
    lower_.push_back(0.0);
    upper_.push_back(upper);
    names_.push_back(std::move(name));
    return objective_.size() - 1;
}

std::size_t LinearProgram::add_row(std::vector<std::pair<std::size_t, double>> terms,
                                   Relation relation, double rhs) {
    std::sort(terms.begin(), terms.end());
    for (std::size_t i = 0; i < terms.size(); ++i) {
        if (terms[i].first >= variable_count())
            throw std::invalid_argument("LinearProgram: row references unknown variable");
        if (i > 0 && terms[i].first == terms[i - 1].first)
            throw std::invalid_argument("LinearProgram: duplicate variable in row");
        if (!std::isfinite(terms[i].second))
            throw std::invalid_argument("LinearProgram: non-finite coefficient");
    }
    if (!std::isfinite(rhs)) throw std::invalid_argument("LinearProgram: non-finite rhs");
    rows_.push_back(Row{std::move(terms), relation, rhs});
    return rows_.size() - 1;
}

double LinearProgram::objective_coefficient(std::size_t var) const {
    return objective_.at(var);
}

double LinearProgram::lower_bound(std::size_t var) const { return lower_.at(var); }

double LinearProgram::upper_bound(std::size_t var) const { return upper_.at(var); }

const std::string& LinearProgram::variable_name(std::size_t var) const {
    return names_.at(var);
}

const Row& LinearProgram::row(std::size_t k) const { return rows_.at(k); }

void LinearProgram::set_bounds(std::size_t var, double lower, double upper) {
    if (var >= variable_count()) throw std::invalid_argument("LinearProgram: unknown variable");
    if (!std::isfinite(lower) || std::isnan(upper) || lower < 0.0 || upper < lower)
        throw std::invalid_argument("LinearProgram: require 0 <= lower <= upper, lower finite");
    lower_[var] = lower;
    upper_[var] = upper;
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
    if (x.size() != variable_count())
        throw std::invalid_argument("LinearProgram: solution size mismatch");
    double v = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) v += objective_[j] * x[j];
    return VNFR_CHECK_FINITE(v);
}

double LinearProgram::max_violation(const std::vector<double>& x) const {
    if (x.size() != variable_count())
        throw std::invalid_argument("LinearProgram: solution size mismatch");
    double worst = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
        worst = std::max(worst, lower_[j] - x[j]);
        if (!std::isinf(upper_[j])) worst = std::max(worst, x[j] - upper_[j]);
    }
    for (const Row& r : rows_) {
        double lhs = 0.0;
        for (const auto& [var, coeff] : r.terms) lhs += coeff * x[var];
        switch (r.relation) {
            case Relation::kLe: worst = std::max(worst, lhs - r.rhs); break;
            case Relation::kGe: worst = std::max(worst, r.rhs - lhs); break;
            case Relation::kEq: worst = std::max(worst, std::fabs(lhs - r.rhs)); break;
        }
    }
    return worst;
}

}  // namespace vnfr::opt
