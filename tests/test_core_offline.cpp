#include "core/offline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "exhaustive.hpp"
#include "core/greedy.hpp"
#include "helpers.hpp"
#include "opt/presolve.hpp"
#include "opt/simplex.hpp"
#include "sim/scenarios.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

Instance tiny_instance(common::Rng& rng, std::size_t n, std::size_t m) {
    // Small enough for exhaustive search but non-trivial.
    return random_instance(rng, n, m, 6, 4, 8);
}

TEST(OfflineModel, OnsiteVariableBookkeeping) {
    const Instance inst = small_instance({0.99, 0.95}, 10.0, 5,
                                         {make_request(0, 0, 0.9, 0, 2, 5.0),
                                          make_request(1, 0, 0.97, 1, 2, 4.0)});
    const OfflineModel model = build_onsite_model(inst);
    // X_i = sum_j Y_ij is substituted out: no X columns.
    EXPECT_TRUE(model.x_vars.empty());
    // Request 0 (R=0.9) fits both cloudlets; request 1 (R=0.97) only the
    // 0.99-reliable one.
    EXPECT_TRUE(model.y_vars[0][0].has_value());
    EXPECT_TRUE(model.y_vars[0][1].has_value());
    EXPECT_TRUE(model.y_vars[1][0].has_value());
    EXPECT_FALSE(model.y_vars[1][1].has_value());
    ASSERT_EQ(model.lp.variable_count(), 3u);
    // Each Y_ij earns its request's payment.
    EXPECT_DOUBLE_EQ(model.lp.objective_coefficient(*model.y_vars[0][0]), 5.0);
    EXPECT_DOUBLE_EQ(model.lp.objective_coefficient(*model.y_vars[0][1]), 5.0);
    EXPECT_DOUBLE_EQ(model.lp.objective_coefficient(*model.y_vars[1][0]), 4.0);
    // Binaries = the 3 Y columns.
    EXPECT_EQ(model.binaries.size(), 3u);
    // Every row is a <= packing row with rhs >= 0, so the slack basis is
    // feasible.
    for (std::size_t k = 0; k < model.lp.row_count(); ++k) {
        EXPECT_EQ(model.lp.row(k).relation, opt::Relation::kLe);
        EXPECT_GE(model.lp.row(k).rhs, 0.0);
    }
}

TEST(OfflineModel, OnsiteInfeasibleRequestForcedToZero) {
    // No cloudlet can meet R = 0.999: the request has no Y column, so the
    // program is empty and earns nothing.
    const Instance inst = small_instance({0.99}, 10.0, 5,
                                         {make_request(0, 0, 0.999, 0, 2, 100.0)});
    const OfflineModel model = build_onsite_model(inst);
    const opt::LpSolution sol = opt::solve_lp(model.lp);
    ASSERT_EQ(sol.status, opt::SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 0.0, 1e-9);
}

TEST(OfflineModel, OffsiteRejectedRequestHasNoPlacements) {
    // Fixing X = 0 must force all Y to 0 through the anchoring row (51).
    const Instance inst = small_instance({0.99, 0.98}, 10.0, 5,
                                         {make_request(0, 0, 0.9, 0, 2, 5.0)});
    OfflineModel model = build_offsite_model(inst);
    model.lp.set_bounds(model.x_vars[0], 0.0, 0.0);
    const opt::LpSolution sol = opt::solve_lp(model.lp);
    ASSERT_EQ(sol.status, opt::SolveStatus::kOptimal);
    for (std::size_t j = 0; j < 2; ++j) {
        EXPECT_NEAR(sol.x[*model.y_vars[0][j]], 0.0, 1e-7);
    }
}

TEST(OfflineModel, OffsiteAdmissionRequiresReliability) {
    // Fixing X = 1 with weak cloudlets must be infeasible when even the
    // full cloudlet set cannot reach R.
    const Instance inst = small_instance({0.91, 0.91}, 10.0, 5,
                                         {make_request(0, 1, 0.995, 0, 2, 5.0)});
    OfflineModel model = build_offsite_model(inst);
    model.lp.set_bounds(model.x_vars[0], 1.0, 1.0);
    const opt::LpSolution sol = opt::solve_lp(model.lp);
    EXPECT_EQ(sol.status, opt::SolveStatus::kInfeasible);
}

TEST(OfflineModel, AnchoringRowsDoNotChangeTheValue) {
    // Rows (51) pin rejected requests' Y to 0 but never change the optimal
    // value (LP or ILP) -- the basis for the fast value-only solver.
    common::Rng rng(127);
    const Instance inst = tiny_instance(rng, 7, 3);
    const OfflineModel full = build_offsite_model(inst, true);
    const OfflineModel relaxed = build_offsite_model(inst, false);
    EXPECT_GT(full.lp.row_count(), relaxed.lp.row_count());

    const opt::LpSolution lp_full = opt::solve_lp(full.lp);
    const opt::LpSolution lp_relaxed = opt::solve_lp(relaxed.lp);
    ASSERT_EQ(lp_full.status, opt::SolveStatus::kOptimal);
    ASSERT_EQ(lp_relaxed.status, opt::SolveStatus::kOptimal);
    EXPECT_NEAR(lp_full.objective, lp_relaxed.objective, 1e-6);

    const opt::IlpSolution ilp_full = opt::solve_ilp(full.lp, full.binaries);
    const opt::IlpSolution ilp_relaxed = opt::solve_ilp(relaxed.lp, relaxed.binaries);
    ASSERT_TRUE(ilp_full.proven_optimal);
    ASSERT_TRUE(ilp_relaxed.proven_optimal);
    EXPECT_NEAR(ilp_full.objective, ilp_relaxed.objective, 1e-6);
}

TEST(SolveOffline, LpBoundDominatesIlp) {
    common::Rng rng(67);
    const Instance inst = tiny_instance(rng, 8, 3);
    for (const Scheme scheme : {Scheme::kOnsite, Scheme::kOffsite}) {
        const OfflineResult res = solve_offline(inst, scheme);
        ASSERT_TRUE(res.lp_optimal);
        ASSERT_TRUE(res.has_ilp);
        EXPECT_GE(res.lp_bound, res.ilp_value - 1e-6);
    }
}

TEST(SolveOffline, LpOnlyModeSkipsIlp) {
    common::Rng rng(71);
    const Instance inst = tiny_instance(rng, 6, 2);
    OfflineConfig cfg;
    cfg.run_ilp = false;
    const OfflineResult res = solve_offline(inst, Scheme::kOnsite, cfg);
    EXPECT_TRUE(res.lp_optimal);
    EXPECT_FALSE(res.has_ilp);
    EXPECT_EQ(res.bnb_nodes, 0u);
}

// Paper-scale LP relaxations: n = 400 requests in the Section VI
// environment, as in Figure 1. The golden bounds and on-site pivot counts
// were computed with the earlier dense-inverse simplex on the on-site
// model that kept X_i columns and = assignment rows.
struct PaperLpCase {
    std::uint64_t seed;
    double onsite_bound;
    double offsite_bound;
    std::size_t dense_onsite_iterations;
};

void PrintTo(const PaperLpCase& c, std::ostream* os) { *os << "seed" << c.seed; }

class PaperScaleLp : public ::testing::TestWithParam<PaperLpCase> {
  protected:
    static Instance make() {
        common::Rng rng(GetParam().seed);
        return make_instance(sim::paper_environment(400), rng);
    }

    /// Strong duality for max c'x, Ax <= b, 0 <= x <= u: with s_j =
    /// max(0, c_j - a_j'y) the dual objective b'y + u's equals c'x, y >= 0
    /// and s_j > 0 only where u_j is finite.
    static void expect_duality_certificate(const opt::LinearProgram& lp,
                                           const opt::LpSolution& sol) {
        ASSERT_EQ(sol.duals.size(), lp.row_count());
        std::vector<double> aty(lp.variable_count(), 0.0);
        double dual_objective = 0.0;
        for (std::size_t k = 0; k < lp.row_count(); ++k) {
            const opt::Row& row = lp.row(k);
            ASSERT_EQ(row.relation, opt::Relation::kLe);
            EXPECT_GE(sol.duals[k], -1e-7) << "row " << k;
            dual_objective += sol.duals[k] * row.rhs;
            for (const auto& [var, coeff] : row.terms) aty[var] += sol.duals[k] * coeff;
        }
        double primal_objective = 0.0;
        for (std::size_t j = 0; j < lp.variable_count(); ++j) {
            ASSERT_DOUBLE_EQ(lp.lower_bound(j), 0.0);
            primal_objective += lp.objective_coefficient(j) * sol.x[j];
            const double s = std::max(0.0, lp.objective_coefficient(j) - aty[j]);
            if (lp.upper_bound(j) == opt::kInfinity) {
                EXPECT_LE(s, 1e-6) << "dual feasibility, column " << j;
            } else {
                dual_objective += lp.upper_bound(j) * s;
            }
        }
        EXPECT_NEAR(dual_objective, primal_objective, 1e-6 * primal_objective);
        EXPECT_NEAR(primal_objective, sol.objective, 1e-9 * primal_objective);
    }
};

TEST_P(PaperScaleLp, OnsiteBoundMeetsEqs4And5WithACertificate) {
    const Instance inst = make();
    OfflineConfig lp_only;
    lp_only.run_ilp = false;
    const OfflineResult res = solve_offline(inst, Scheme::kOnsite, lp_only);
    ASSERT_TRUE(res.lp_optimal);
    EXPECT_NEAR(res.lp_bound, GetParam().onsite_bound, 1e-9 * GetParam().onsite_bound);

    // solve_offline's path, split open.
    const OfflineModel model = build_onsite_model(inst);
    const opt::PresolveResult pre = opt::presolve(model.lp);
    ASSERT_FALSE(pre.infeasible);
    const opt::LpSolution sol = opt::solve_lp(pre.reduced);
    ASSERT_EQ(sol.status, opt::SolveStatus::kOptimal);
    EXPECT_EQ(sol.objective + pre.objective_offset, res.lp_bound);
    EXPECT_LT(sol.iterations, GetParam().dense_onsite_iterations);
    expect_duality_certificate(pre.reduced, sol);

    // Y against the paper's rows, rebuilt from the instance: capacity (4)
    // and assignment (5) with X_i = sum_j Y_ij <= 1.
    const std::vector<double> x = pre.restore(sol.x);
    const std::size_t m = inst.network.cloudlet_count();
    std::vector<std::vector<double>> load(
        m, std::vector<double>(static_cast<std::size_t>(inst.horizon), 0.0));
    double revenue = 0.0;
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        const workload::Request& r = inst.requests[i];
        double assigned = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
            if (!model.y_vars[i][j]) continue;
            const double y = x[*model.y_vars[i][j]];
            EXPECT_GE(y, -1e-6);
            assigned += y;
            const int replicas = *vnf::min_onsite_replicas(
                inst.network.cloudlet(CloudletId{static_cast<std::int64_t>(j)}).reliability,
                inst.catalog.reliability(r.vnf), r.requirement);
            for (TimeSlot t = r.arrival; t < r.end(); ++t) {
                load[j][static_cast<std::size_t>(t)] +=
                    replicas * inst.catalog.compute_units(r.vnf) * y;
            }
        }
        EXPECT_LE(assigned, 1.0 + 1e-6) << "request " << i;
        revenue += r.payment * assigned;
    }
    for (std::size_t j = 0; j < m; ++j) {
        const double capacity =
            inst.network.cloudlet(CloudletId{static_cast<std::int64_t>(j)}).capacity;
        for (std::size_t t = 0; t < load[j].size(); ++t) {
            EXPECT_LE(load[j][t], capacity + 1e-6) << "cloudlet " << j << " slot " << t;
        }
    }
    EXPECT_NEAR(revenue, res.lp_bound, 1e-6 * res.lp_bound);
}

TEST_P(PaperScaleLp, OffsiteBoundWithACertificate) {
    const Instance inst = make();
    OfflineConfig lp_only;
    lp_only.run_ilp = false;
    const OfflineResult res = solve_offline(inst, Scheme::kOffsite, lp_only);
    ASSERT_TRUE(res.lp_optimal);
    EXPECT_NEAR(res.lp_bound, GetParam().offsite_bound, 1e-9 * GetParam().offsite_bound);

    const OfflineModel model = build_offsite_model(inst, /*anchor_rejected_requests=*/false);
    const opt::PresolveResult pre = opt::presolve(model.lp);
    ASSERT_FALSE(pre.infeasible);
    const opt::LpSolution sol = opt::solve_lp(pre.reduced);
    ASSERT_EQ(sol.status, opt::SolveStatus::kOptimal);
    EXPECT_EQ(sol.objective + pre.objective_offset, res.lp_bound);
    expect_duality_certificate(pre.reduced, sol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaperScaleLp,
                         ::testing::Values(PaperLpCase{1, 18924.474183702328,
                                                       21790.309449982829, 5353},
                                           PaperLpCase{2, 16100.27246883829,
                                                       18302.364059813208, 4114}));

// Property: branch-and-bound on the ILP models equals exhaustive search.
class OfflineExactTest : public ::testing::TestWithParam<int> {};

TEST_P(OfflineExactTest, OnsiteIlpMatchesExhaustive) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
    const Instance inst = tiny_instance(rng, 7, 3);
    const ExhaustiveResult exact = exhaustive_onsite(inst);
    const OfflineResult ilp = solve_offline(inst, Scheme::kOnsite);
    ASSERT_TRUE(ilp.has_ilp);
    ASSERT_TRUE(ilp.ilp_proven);
    EXPECT_NEAR(ilp.ilp_value, exact.revenue, 1e-6);
    EXPECT_GE(ilp.lp_bound, exact.revenue - 1e-6);
}

TEST_P(OfflineExactTest, OffsiteIlpMatchesExhaustive) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 7);
    const Instance inst = tiny_instance(rng, 6, 3);
    const ExhaustiveResult exact = exhaustive_offsite(inst);
    const OfflineResult ilp = solve_offline(inst, Scheme::kOffsite);
    ASSERT_TRUE(ilp.has_ilp);
    ASSERT_TRUE(ilp.ilp_proven);
    EXPECT_NEAR(ilp.ilp_value, exact.revenue, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineExactTest, ::testing::Range(0, 8));

TEST(Exhaustive, RespectsSizeGuards) {
    common::Rng rng(73);
    const Instance big = random_instance(rng, 20, 3, 6);
    EXPECT_THROW(exhaustive_onsite(big), std::invalid_argument);
    EXPECT_THROW(exhaustive_offsite(big), std::invalid_argument);
}

TEST(Exhaustive, OptimalDecisionsAreFeasible) {
    common::Rng rng(79);
    const Instance inst = tiny_instance(rng, 6, 3);
    const ExhaustiveResult exact = exhaustive_onsite(inst);
    // Replay the decisions and confirm revenue and capacity feasibility.
    edge::ResourceLedger ledger(inst.network.capacities(), inst.horizon);
    double revenue = 0.0;
    for (std::size_t i = 0; i < exact.decisions.size(); ++i) {
        const Decision& d = exact.decisions[i];
        if (!d.admitted) continue;
        revenue += inst.requests[i].payment;
        for (const Site& s : d.placement.sites) {
            ASSERT_TRUE(ledger.reserve(
                s.cloudlet, inst.requests[i].arrival, inst.requests[i].end(),
                s.replicas * inst.catalog.compute_units(inst.requests[i].vnf)));
        }
    }
    EXPECT_NEAR(revenue, exact.revenue, 1e-9);
}

TEST(SolveOffline, DominatesGreedyOnline) {
    // The offline optimum upper-bounds any online algorithm's revenue.
    common::Rng rng(83);
    const Instance inst = tiny_instance(rng, 8, 3);
    OnsiteGreedy greedy(inst);
    const ScheduleResult greedy_result = run_online(inst, greedy);
    const OfflineResult off = solve_offline(inst, Scheme::kOnsite);
    ASSERT_TRUE(off.has_ilp);
    EXPECT_GE(off.ilp_value, greedy_result.revenue - 1e-6);
}

}  // namespace
}  // namespace vnfr::core
