#include "opt/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace vnfr::opt {

namespace {

/// Standard computational form shared by the two phases:
///     min cost^T z   s.t.  M z = b,  0 <= z_j <= ub_j
/// where z = [shifted structural vars | slacks/surplus | artificials].
/// Variable bounds are handled natively by the bounded-variable simplex —
/// they never become rows.
struct StandardForm {
    std::size_t rows{0};
    std::size_t structural_count{0};
    /// M in compressed sparse columns: column j's entries are
    /// [col_start[j], col_start[j + 1]) of row_index / value.
    std::vector<std::size_t> col_start{0};
    std::vector<std::size_t> row_index;
    std::vector<double> value;
    std::vector<double> cost;       ///< phase-2 cost (min sense)
    std::vector<double> ub;         ///< per column; kInfinity when free above
    std::vector<char> artificial;   ///< per column
    std::vector<double> b;          ///< >= 0 after normalization
    std::vector<double> row_sign;   ///< +1/-1 applied during normalization
    std::size_t original_rows{0};
    std::vector<double> lower;      ///< per user variable (the shift)
    /// M again in compressed sparse rows, for the pivot row rho^T M: row
    /// i's entries are [row_start[i], row_start[i + 1]) of row_col /
    /// row_value, columns ascending. Built once the columns are final.
    std::vector<std::size_t> row_start;
    std::vector<std::size_t> row_col;
    std::vector<double> row_value;

    [[nodiscard]] std::size_t column_count() const { return col_start.size() - 1; }

    /// Fills the row-major copy from the columns.
    void build_rows() {
        row_start.assign(rows + 1, 0);
        for (const std::size_t i : row_index) ++row_start[i + 1];
        for (std::size_t i = 0; i < rows; ++i) row_start[i + 1] += row_start[i];
        row_col.resize(row_index.size());
        row_value.resize(row_index.size());
        std::vector<std::size_t> fill(row_start.begin(), row_start.end() - 1);
        for (std::size_t j = 0; j < column_count(); ++j) {
            for (std::size_t p = col_start[j]; p < col_start[j + 1]; ++p) {
                row_col[fill[row_index[p]]] = j;
                row_value[fill[row_index[p]]++] = value[p];
            }
        }
    }

    /// Appends a one-entry column (slack, surplus or artificial) at `row`.
    void add_unit_column(std::size_t row, double coeff, bool is_artificial) {
        row_index.push_back(row);
        value.push_back(coeff);
        col_start.push_back(row_index.size());
        cost.push_back(0.0);
        ub.push_back(kInfinity);
        artificial.push_back(is_artificial ? 1 : 0);
    }

    /// Whether column j is a +1 unit column, which equals an identity
    /// column of the basis matrix and so needs no eta.
    [[nodiscard]] bool is_unit_column(std::size_t j) const {
        return col_start[j + 1] - col_start[j] == 1 &&
               value[col_start[j]] == 1.0;  // vnfr-lint: allow(float-eq) slack and artificial columns carry a literal 1.0 coefficient
    }
};

StandardForm build_standard_form(const LinearProgram& lp) {
    StandardForm sf;
    const std::size_t n = lp.variable_count();
    sf.structural_count = n;
    sf.lower.resize(n);
    sf.rows = lp.row_count();
    sf.original_rows = lp.row_count();

    for (std::size_t j = 0; j < n; ++j) {
        sf.lower[j] = lp.lower_bound(j);
        if (lp.upper_bound(j) < sf.lower[j])
            throw std::invalid_argument("simplex: upper < lower");
    }

    std::vector<Relation> relation(sf.rows);
    sf.b.resize(sf.rows);
    sf.row_sign.assign(sf.rows, 1.0);

    for (std::size_t k = 0; k < sf.rows; ++k) {
        const Row& r = lp.row(k);
        double rhs = r.rhs;
        for (const auto& [var, coeff] : r.terms) rhs -= coeff * sf.lower[var];
        Relation rel = r.relation;
        if (rhs < 0.0) {
            sf.row_sign[k] = -1.0;
            rhs = -rhs;
            if (rel == Relation::kLe) rel = Relation::kGe;
            else if (rel == Relation::kGe) rel = Relation::kLe;
        }
        relation[k] = rel;
        sf.b[k] = rhs;
    }

    // Structural columns (phase-2 cost = -c to minimize), shifted bounds.
    // Rows are visited in order, so each column's row indices ascend.
    sf.col_start.assign(n + 1, 0);
    for (std::size_t k = 0; k < sf.rows; ++k) {
        for (const auto& term : lp.row(k).terms) ++sf.col_start[term.first + 1];
    }
    for (std::size_t j = 0; j < n; ++j) sf.col_start[j + 1] += sf.col_start[j];
    sf.row_index.resize(sf.col_start[n]);
    sf.value.resize(sf.col_start[n]);
    std::vector<std::size_t> fill(sf.col_start.begin(), sf.col_start.end() - 1);
    for (std::size_t k = 0; k < sf.rows; ++k) {
        for (const auto& [var, coeff] : lp.row(k).terms) {
            sf.row_index[fill[var]] = k;
            sf.value[fill[var]++] = sf.row_sign[k] * coeff;
        }
    }
    sf.cost.assign(n, 0.0);
    sf.ub.assign(n, kInfinity);
    sf.artificial.assign(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
        sf.cost[j] = -lp.objective_coefficient(j);
        const double u = lp.upper_bound(j);
        sf.ub[j] = u == kInfinity ? kInfinity : u - sf.lower[j];
    }

    // Slack (<=) and surplus (>=) columns; artificials are appended when
    // the initial basis is installed.
    for (std::size_t k = 0; k < sf.rows; ++k) {
        if (relation[k] == Relation::kLe) sf.add_unit_column(k, 1.0, false);
        else if (relation[k] == Relation::kGe) sf.add_unit_column(k, -1.0, false);
    }
    return sf;
}

enum class VarStatus : char { kBasic, kAtLower, kAtUpper };

/// Bounded-variable revised simplex over a product-form inverse: B^-1 is
/// kept as a file of eta matrices E_k ... E_1, each the elementary matrix
/// of one pivot, so FTRAN, BTRAN and a basis change cost the etas'
/// nonzeros rather than m^2. The reduced costs d of the current phase are
/// kept too and updated from the pivot row, so pricing is one pass over d.
class RevisedSimplex {
  public:
    RevisedSimplex(StandardForm sf, const SimplexOptions& opt)
        : sf_(std::move(sf)), opt_(opt), m_(sf_.rows) {}

    LpSolution run(const LinearProgram& lp);

  private:
    enum class StepResult { kOptimal, kUnbounded, kMoved };

    void install_initial_basis();
    void reinvert();
    /// Pivots on `cost` until optimal, unbounded or the iteration cap.
    SolveStatus iterate(const std::vector<double>& cost);
    /// One pricing + ratio test + move; `improvement` receives the
    /// objective decrease of a move.
    StepResult step(const std::vector<double>& cost, bool blands, double& improvement);
    /// The entering column by Dantzig's rule (largest gain, lowest index
    /// on a tie) or Bland's (first improving column) over d_;
    /// column_count() when no column improves.
    [[nodiscard]] std::size_t price(bool blands) const;
    void drive_out_artificials();
    /// Writes column j's status and keeps its pricing direction in step.
    void set_status(std::size_t j, VarStatus status);

    /// v := B^-1 v, applying the etas oldest first.
    void ftran(std::vector<double>& v) const;
    /// v^T := v^T B^-1, applying the etas newest first.
    void btran(std::vector<double>& v) const;
    /// w := B^-1 a_j.
    void load_column(std::size_t j, std::vector<double>& w) const;
    /// Appends the eta of a pivot on row r of the FTRANed column w.
    void add_eta(std::size_t r, const std::vector<double>& w);
    /// y^T := c_B^T B^-1, from scratch.
    void compute_duals(const std::vector<double>& cost);
    /// d_j := c_j - y^T a_j for every nonbasic column (0 on basic ones).
    void compute_reduced_costs(const std::vector<double>& cost);
    /// alpha_ := rho^T M, one entry per column, walking only the rows
    /// where rho != 0; each column's terms add in ascending row order.
    void pivot_row(const std::vector<double>& rho);
    [[nodiscard]] double objective_of(const std::vector<double>& cost) const;
    [[nodiscard]] double nonbasic_value(std::size_t j) const {
        return status_[j] == VarStatus::kAtUpper ? sf_.ub[j] : 0.0;
    }

    StandardForm sf_;
    SimplexOptions opt_;
    std::size_t m_;

    std::vector<std::size_t> basis_;  ///< column per row
    std::vector<VarStatus> status_;   ///< per column
    std::vector<double> xb_;          ///< basic variable values
    std::vector<double> y_;           ///< duals of the current phase's cost
    std::vector<double> d_;           ///< reduced costs of the current phase's cost
    bool d_exact_{false};             ///< no pivot has updated d_ since it was recomputed
    /// Per column: -1 at lower, +1 at upper, 0 when basic, not allowed to
    /// enter or fixed; a column improves when direction * d_j > 0.
    std::vector<double> direction_;
    std::vector<char> allowed_;       ///< columns allowed to enter
    // Eta file: eta k pivots on eta_row_[k] with element eta_pivot_[k];
    // its other nonzeros are [eta_start_[k], eta_start_[k + 1]).
    std::vector<std::size_t> eta_row_;
    std::vector<double> eta_pivot_;
    std::vector<std::size_t> eta_start_{0};
    std::vector<std::size_t> eta_index_;
    std::vector<double> eta_value_;
    std::size_t iterations_{0};
    std::size_t pivots_since_refactor_{0};
    // Scratch buffers reused across iterations.
    std::vector<double> w_scratch_;
    std::vector<double> rho_scratch_;
    std::vector<double> alpha_;  ///< the pivot row rho^T M
};

void RevisedSimplex::ftran(std::vector<double>& v) const {
    for (std::size_t k = 0; k < eta_row_.size(); ++k) {
        const std::size_t r = eta_row_[k];
        if (v[r] == 0.0) continue;  // vnfr-lint: allow(float-eq) exact-zero skip only avoids a no-op eta
        const double t = v[r] / eta_pivot_[k];
        v[r] = t;
        for (std::size_t p = eta_start_[k]; p < eta_start_[k + 1]; ++p) {
            v[eta_index_[p]] -= eta_value_[p] * t;
        }
    }
}

void RevisedSimplex::btran(std::vector<double>& v) const {
    for (std::size_t k = eta_row_.size(); k-- > 0;) {
        double s = v[eta_row_[k]];
        for (std::size_t p = eta_start_[k]; p < eta_start_[k + 1]; ++p) {
            s -= eta_value_[p] * v[eta_index_[p]];
        }
        v[eta_row_[k]] = s / eta_pivot_[k];
    }
}

void RevisedSimplex::load_column(std::size_t j, std::vector<double>& w) const {
    w.assign(m_, 0.0);
    for (std::size_t p = sf_.col_start[j]; p < sf_.col_start[j + 1]; ++p) {
        w[sf_.row_index[p]] = sf_.value[p];
    }
    ftran(w);
}

void RevisedSimplex::add_eta(std::size_t r, const std::vector<double>& w) {
    eta_row_.push_back(r);
    eta_pivot_.push_back(w[r]);
    for (std::size_t i = 0; i < m_; ++i) {
        if (i == r || w[i] == 0.0) continue;  // vnfr-lint: allow(float-eq) stores exact nonzeros only
        eta_index_.push_back(i);
        eta_value_.push_back(w[i]);
    }
    eta_start_.push_back(eta_index_.size());
}

void RevisedSimplex::install_initial_basis() {
    basis_.assign(m_, 0);
    std::vector<char> has_basic(m_, 0);

    // Slacks (+1 columns) form the natural starting basis where available.
    for (std::size_t j = sf_.structural_count; j < sf_.column_count(); ++j) {
        const std::size_t row = sf_.row_index[sf_.col_start[j]];
        if (sf_.is_unit_column(j) && !has_basic[row]) {
            basis_[row] = j;
            has_basic[row] = 1;
        }
    }
    // Artificials cover >= and = rows.
    for (std::size_t k = 0; k < m_; ++k) {
        if (has_basic[k]) continue;
        sf_.add_unit_column(k, 1.0, true);
        basis_[k] = sf_.column_count() - 1;
    }

    sf_.build_rows();

    allowed_.assign(sf_.column_count(), 1);
    status_.assign(sf_.column_count(), VarStatus::kAtLower);
    direction_.assign(sf_.column_count(), 0.0);
    for (const std::size_t j : basis_) status_[j] = VarStatus::kBasic;
    for (std::size_t j = 0; j < sf_.column_count(); ++j) set_status(j, status_[j]);
    // The basis is the identity: an empty eta file.
    xb_ = sf_.b;  // all structural nonbasics start at lower (0)
}

void RevisedSimplex::set_status(std::size_t j, VarStatus status) {
    status_[j] = status;
    if (status == VarStatus::kBasic || !allowed_[j] || sf_.ub[j] <= opt_.tolerance) {
        direction_[j] = 0.0;  // fixed at 0 when ub <= tolerance: can't move
    } else {
        direction_[j] = status == VarStatus::kAtLower ? -1.0 : 1.0;
    }
}

void RevisedSimplex::reinvert() {
    eta_row_.clear();
    eta_pivot_.clear();
    eta_start_.assign(1, 0);
    eta_index_.clear();
    eta_value_.clear();

    // Unit columns claim their rows for free; the rest pivot in, sparsest
    // first, each on its largest entry among the rows still unclaimed.
    std::vector<std::size_t> next_basis(m_, 0);
    std::vector<char> claimed(m_, 0);
    std::vector<std::pair<std::size_t, std::size_t>> rest;  // (nonzeros, column)
    for (const std::size_t j : basis_) {
        if (sf_.is_unit_column(j)) {
            const std::size_t row = sf_.row_index[sf_.col_start[j]];
            if (!claimed[row]) {
                next_basis[row] = j;
                claimed[row] = 1;
                continue;
            }
        }
        rest.emplace_back(sf_.col_start[j + 1] - sf_.col_start[j], j);
    }
    std::sort(rest.begin(), rest.end());
    std::vector<double>& w = w_scratch_;
    for (const auto& [nonzeros, j] : rest) {
        load_column(j, w);
        std::size_t r = m_;
        double best = 0.0;
        for (std::size_t i = 0; i < m_; ++i) {
            if (!claimed[i] && std::fabs(w[i]) > best) {
                best = std::fabs(w[i]);
                r = i;
            }
        }
        if (best < 1e-9) throw std::runtime_error("simplex: singular basis in reinversion");
        add_eta(r, w);
        next_basis[r] = j;
        claimed[r] = 1;
    }
    basis_ = std::move(next_basis);

    // Recompute basic values: xb = B^-1 (b - sum_{j at upper} a_j ub_j).
    xb_ = sf_.b;
    for (std::size_t j = 0; j < sf_.column_count(); ++j) {
        if (status_[j] != VarStatus::kAtUpper) continue;
        for (std::size_t p = sf_.col_start[j]; p < sf_.col_start[j + 1]; ++p) {
            xb_[sf_.row_index[p]] -= sf_.value[p] * sf_.ub[j];
        }
    }
    ftran(xb_);
    pivots_since_refactor_ = 0;
}

void RevisedSimplex::compute_duals(const std::vector<double>& cost) {
    y_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) y_[r] = cost[basis_[r]];
    btran(y_);
}

void RevisedSimplex::compute_reduced_costs(const std::vector<double>& cost) {
    d_.assign(sf_.column_count(), 0.0);
    for (std::size_t j = 0; j < sf_.column_count(); ++j) {
        if (status_[j] == VarStatus::kBasic) continue;
        double d = cost[j];
        for (std::size_t p = sf_.col_start[j]; p < sf_.col_start[j + 1]; ++p) {
            d -= y_[sf_.row_index[p]] * sf_.value[p];
        }
        d_[j] = d;
    }
    d_exact_ = true;
}

void RevisedSimplex::pivot_row(const std::vector<double>& rho) {
    alpha_.assign(sf_.column_count(), 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
        const double r = rho[i];
        if (r == 0.0) continue;  // vnfr-lint: allow(float-eq) exact-zero skip only avoids a no-op row
        for (std::size_t p = sf_.row_start[i]; p < sf_.row_start[i + 1]; ++p) {
            alpha_[sf_.row_col[p]] += r * sf_.row_value[p];
        }
    }
}

double RevisedSimplex::objective_of(const std::vector<double>& cost) const {
    double v = 0.0;
    for (std::size_t i = 0; i < m_; ++i) v += cost[basis_[i]] * xb_[i];
    for (std::size_t j = 0; j < sf_.column_count(); ++j) {
        if (status_[j] == VarStatus::kAtUpper) v += cost[j] * sf_.ub[j];
    }
    return v;
}

void RevisedSimplex::drive_out_artificials() {
    std::vector<double>& rho = rho_scratch_;
    for (std::size_t i = 0; i < m_; ++i) {
        if (!sf_.artificial[basis_[i]]) continue;
        // Entry i of B^-1 a_j is rho^T a_j with rho = e_i^T B^-1.
        rho.assign(m_, 0.0);
        rho[i] = 1.0;
        btran(rho);
        pivot_row(rho);
        for (std::size_t j = 0; j < sf_.column_count(); ++j) {
            if (status_[j] == VarStatus::kBasic || sf_.artificial[j]) continue;
            if (std::fabs(alpha_[j]) <= 1e-7) continue;
            // Zero-level swap: the artificial sits at ~0, so replacing it
            // with column j at its current bound value keeps x fixed.
            const double keep = nonbasic_value(j);
            load_column(j, w_scratch_);
            add_eta(i, w_scratch_);
            set_status(basis_[i], VarStatus::kAtLower);
            set_status(j, VarStatus::kBasic);
            basis_[i] = j;
            xb_[i] = keep;
            ++pivots_since_refactor_;
            break;
        }
    }
}

std::size_t RevisedSimplex::price(bool blands) const {
    // A nonbasic-at-lower column improves when d_j < 0 (increase); a
    // nonbasic-at-upper column improves when d_j > 0 (decrease).
    std::size_t entering = sf_.column_count();
    double best = opt_.tolerance;
    for (std::size_t j = 0; j < sf_.column_count(); ++j) {
        const double gain = direction_[j] * d_[j];
        if (gain > best) {
            if (blands) return j;
            best = gain;
            entering = j;
        }
    }
    return entering;
}

RevisedSimplex::StepResult RevisedSimplex::step(const std::vector<double>& cost, bool blands,
                                                double& improvement) {
    // Pricing over the maintained d_. Optimality is declared only from d_
    // recomputed from y, so drift in the updates cannot fake an optimum.
    std::size_t entering = price(blands);
    if (entering == sf_.column_count() && !d_exact_) {
        compute_reduced_costs(cost);
        entering = price(blands);
    }
    if (entering == sf_.column_count()) return StepResult::kOptimal;
    const double entering_d = d_[entering];

    // sigma = +1: entering increases from lower; -1: decreases from upper.
    const double sigma = status_[entering] == VarStatus::kAtLower ? 1.0 : -1.0;
    load_column(entering, w_scratch_);
    const std::vector<double>& w = w_scratch_;

    // Ratio test. x_B changes by -sigma * t * w as the entering variable
    // moves t >= 0 away from its bound. Limits: a basic variable hits 0, a
    // basic variable hits its finite upper bound, or the entering variable
    // reaches its own opposite bound (a "bound flip", no basis change).
    double t_max = sf_.ub[entering];  // kInfinity when the entering is free above
    std::size_t leaving = m_;         // m_ means "bound flip"
    VarStatus leaving_status = VarStatus::kAtLower;
    const auto consider = [&](std::size_t i, double t, VarStatus status) {
        if (t < t_max - 1e-12) {
            t_max = std::max(0.0, t);
            leaving = i;
            leaving_status = status;
            return;
        }
        // Tie: prefer a basis change only over another basis change (keeping
        // a pure bound flip is cheaper); Bland takes the smallest basis
        // column, Dantzig the larger pivot element for stability.
        if (t <= t_max + 1e-12 && leaving != m_) {
            const bool prefer = blands ? basis_[i] < basis_[leaving]
                                       : std::fabs(w[i]) > std::fabs(w[leaving]);
            if (prefer) {
                leaving = i;
                leaving_status = status;
            }
        }
    };
    for (std::size_t i = 0; i < m_; ++i) {
        const double delta = sigma * w[i];
        if (delta > opt_.tolerance) {
            // Basic variable i decreases toward 0.
            consider(i, std::max(0.0, xb_[i]) / delta, VarStatus::kAtLower);
        } else if (delta < -opt_.tolerance) {
            // Basic variable i increases toward its finite upper bound.
            const double u = sf_.ub[basis_[i]];
            if (u == kInfinity) continue;
            consider(i, std::max(0.0, u - xb_[i]) / (-delta), VarStatus::kAtUpper);
        }
    }
    if (t_max == kInfinity) return StepResult::kUnbounded;
    t_max = std::max(0.0, t_max);
    // The objective falls by exactly t |d_q| along the move.
    improvement = t_max * std::fabs(entering_d);

    // Apply the move to the basic values.
    for (std::size_t i = 0; i < m_; ++i) {
        if (w[i] != 0.0) xb_[i] -= sigma * t_max * w[i];  // vnfr-lint: allow(float-eq) exact-zero skip only avoids a no-op move
    }

    if (leaving == m_) {
        // Bound flip: the entering variable runs to its opposite bound.
        // The basis is unchanged, and so are y and d.
        set_status(entering, status_[entering] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                                      : VarStatus::kAtLower);
        return StepResult::kMoved;
    }

    // Duals of the new basis: y += (d_q / w_r) rho_r, rho_r = e_r^T B^-1
    // taken on the old basis; the reduced costs follow from the pivot row,
    // d_j -= (d_q / w_r) rho_r^T a_j, and the entering column's is 0.
    std::vector<double>& rho = rho_scratch_;
    rho.assign(m_, 0.0);
    rho[leaving] = 1.0;
    btran(rho);
    const double f = entering_d / w[leaving];
    for (std::size_t i = 0; i < m_; ++i) y_[i] += f * rho[i];
    pivot_row(rho);
    for (std::size_t j = 0; j < sf_.column_count(); ++j) d_[j] -= f * alpha_[j];
    d_[entering] = 0.0;
    d_exact_ = false;

    // Entering becomes basic at its new value.
    const double entering_value =
        status_[entering] == VarStatus::kAtLower ? t_max : sf_.ub[entering] - t_max;
    add_eta(leaving, w);
    set_status(basis_[leaving], leaving_status);
    set_status(entering, VarStatus::kBasic);
    basis_[leaving] = entering;
    xb_[leaving] = entering_value;
    ++pivots_since_refactor_;
    return StepResult::kMoved;
}

SolveStatus RevisedSimplex::iterate(const std::vector<double>& cost) {
    compute_duals(cost);
    compute_reduced_costs(cost);
    std::size_t degenerate_run = 0;
    while (iterations_ < opt_.max_iterations) {
        if (pivots_since_refactor_ >= opt_.refactor_interval) {
            reinvert();
            compute_duals(cost);
            compute_reduced_costs(cost);
        }
        double improvement = 0.0;
        const StepResult res = step(cost, degenerate_run > opt_.degenerate_limit, improvement);
        ++iterations_;
        if (res == StepResult::kOptimal) return SolveStatus::kOptimal;
        if (res == StepResult::kUnbounded) return SolveStatus::kUnbounded;
        degenerate_run = improvement > opt_.tolerance ? 0 : degenerate_run + 1;
    }
    return SolveStatus::kIterationLimit;
}

LpSolution RevisedSimplex::run(const LinearProgram& lp) {
    LpSolution out;
    install_initial_basis();

    std::vector<double> phase1_cost(sf_.column_count(), 0.0);
    bool any_artificial = false;
    for (std::size_t j = 0; j < sf_.column_count(); ++j) {
        if (sf_.artificial[j]) {
            phase1_cost[j] = 1.0;
            any_artificial = true;
        }
    }

    if (any_artificial) {
        if (iterate(phase1_cost) == SolveStatus::kUnbounded)
            throw std::runtime_error("simplex: phase-1 unbounded (bug)");
        const double infeasibility = objective_of(phase1_cost);
        if (infeasibility > 1e-6) {
            out.status = iterations_ >= opt_.max_iterations ? SolveStatus::kIterationLimit
                                                            : SolveStatus::kInfeasible;
            out.iterations = iterations_;
            return out;
        }
        for (std::size_t j = 0; j < sf_.column_count(); ++j) {
            if (!sf_.artificial[j]) continue;
            allowed_[j] = 0;
            set_status(j, status_[j]);
        }
        drive_out_artificials();
    }

    const SolveStatus status = iterate(sf_.cost);
    out.status = status;
    out.iterations = iterations_;
    if (status != SolveStatus::kOptimal) return out;

    // Recover user-space solution: x_j = lower_j + z_j.
    out.x.assign(lp.variable_count(), 0.0);
    for (std::size_t j = 0; j < lp.variable_count(); ++j) {
        out.x[j] = sf_.lower[j] + (status_[j] == VarStatus::kAtUpper ? sf_.ub[j] : 0.0);
    }
    for (std::size_t i = 0; i < m_; ++i) {
        if (basis_[i] < sf_.structural_count) {
            out.x[basis_[i]] = sf_.lower[basis_[i]] + xb_[i];
        }
    }
    out.objective = lp.objective_value(out.x);

    compute_duals(sf_.cost);
    out.duals.assign(sf_.original_rows, 0.0);
    for (std::size_t k = 0; k < sf_.original_rows; ++k) {
        out.duals[k] = -sf_.row_sign[k] * y_[k];
    }
    return out;
}

}  // namespace

LpSolution solve_lp(const LinearProgram& lp, const SimplexOptions& options) {
    if (!std::isfinite(options.tolerance) || options.tolerance <= 0.0)
        throw std::invalid_argument("simplex: tolerance must be finite and positive");
    if (options.refactor_interval == 0)
        throw std::invalid_argument("simplex: refactor_interval must be positive");
    if (lp.variable_count() == 0) {
        // Every row is empty: it holds or it does not.
        LpSolution out;
        out.status = SolveStatus::kOptimal;
        for (std::size_t k = 0; k < lp.row_count(); ++k) {
            if (!empty_row_holds(lp.row(k).relation, lp.row(k).rhs)) {
                out.status = SolveStatus::kInfeasible;
                return out;
            }
        }
        out.duals.assign(lp.row_count(), 0.0);
        return out;
    }
    StandardForm sf = build_standard_form(lp);
    RevisedSimplex solver(std::move(sf), options);
    return solver.run(lp);
}

}  // namespace vnfr::opt
