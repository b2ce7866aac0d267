#include "core/offline.hpp"

#include <span>
#include <string>

#include "common/contracts.hpp"
#include "common/math.hpp"
#include "opt/presolve.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

namespace {

/// Shared capacity-row construction: one <= row per (cloudlet, slot) that
/// has at least one potentially active placement. `demand(i, j)` gives the
/// per-slot compute units Y_ij would consume.
template <typename DemandFn>
void add_capacity_rows(const Instance& instance, OfflineModel& model, DemandFn demand) {
    const std::size_t m = instance.network.cloudlet_count();
    for (std::size_t j = 0; j < m; ++j) {
        for (TimeSlot t = 0; t < instance.horizon; ++t) {
            std::vector<std::pair<std::size_t, double>> terms;
            for (std::size_t i = 0; i < instance.requests.size(); ++i) {
                const workload::Request& r = instance.requests[i];
                if (!r.covers(t) || !model.y_vars[i][j]) continue;
                terms.emplace_back(*model.y_vars[i][j], demand(i, j));
            }
            if (terms.empty()) continue;
            model.lp.add_row(std::move(terms), opt::Relation::kLe,
                             instance.network.cloudlet(
                                          CloudletId{static_cast<std::int64_t>(j)})
                                 .capacity);
        }
    }
}

}  // namespace

OfflineModel build_onsite_model(const Instance& instance) {
    instance.validate();
    OfflineModel model;
    const std::size_t n = instance.requests.size();
    const std::size_t m = instance.network.cloudlet_count();

    model.y_vars.assign(n, std::vector<std::optional<std::size_t>>(m));

    // Replica counts N_ij; Y_ij exists only where the cloudlet can satisfy
    // the requirement at all. X_i = sum_j Y_ij is substituted out, so Y_ij
    // earns the payment p_i.
    std::vector<std::vector<int>> replicas(n, std::vector<int>(m, 0));
    for (std::size_t i = 0; i < n; ++i) {
        const workload::Request& r = instance.requests[i];
        const vnf::ReplicaRow& row = instance.catalog.replica_row(r.vnf);
        for (std::size_t j = 0; j < m; ++j) {
            const auto count = vnf::onsite_replicas(
                row,
                instance.network.cloudlet(CloudletId{static_cast<std::int64_t>(j)})
                    .reliability,
                r.requirement);
            if (!count) continue;
            VNFR_CHECK(*count >= 1, "Eq. (3) replica count for request ", i,
                       " on cloudlet ", j);
            replicas[i][j] = *count;
            const std::size_t y = model.lp.add_variable(
                r.payment, 1.0, "y" + std::to_string(i) + "_" + std::to_string(j));
            model.y_vars[i][j] = y;
            model.binaries.push_back(y);
        }
    }

    // Capacity (4): sum_i V_i[t] N_ij c(f_i) Y_ij <= cap_j.
    add_capacity_rows(instance, model, [&](std::size_t i, std::size_t j) {
        return replicas[i][j] * instance.catalog.compute_units(instance.requests[i].vnf);
    });

    // Assignment (5) with X_i substituted: sum_j Y_ij <= 1. A request with
    // no feasible cloudlet has no Y column and so no row.
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::pair<std::size_t, double>> terms;
        for (std::size_t j = 0; j < m; ++j) {
            if (model.y_vars[i][j]) terms.emplace_back(*model.y_vars[i][j], 1.0);
        }
        if (terms.empty()) continue;
        model.lp.add_row(std::move(terms), opt::Relation::kLe, 1.0);
    }
    return model;
}

OfflineModel build_offsite_model(const Instance& instance, bool anchor_rejected_requests) {
    instance.validate();
    OfflineModel model;
    const std::size_t n = instance.requests.size();
    const std::size_t m = instance.network.cloudlet_count();

    model.x_vars.reserve(n);
    model.y_vars.assign(n, std::vector<std::optional<std::size_t>>(m));

    for (std::size_t i = 0; i < n; ++i) {
        const workload::Request& r = instance.requests[i];
        const std::size_t x =
            model.lp.add_variable(r.payment, 1.0, "x" + std::to_string(i));
        model.x_vars.push_back(x);
        model.binaries.push_back(x);
        for (std::size_t j = 0; j < m; ++j) {
            const std::size_t y = model.lp.add_variable(
                0.0, 1.0, "y" + std::to_string(i) + "_" + std::to_string(j));
            model.y_vars[i][j] = y;
            model.binaries.push_back(y);
        }
    }

    // Capacity (49): sum_i V_i[t] c(f_i) Y_ij <= cap_j.
    add_capacity_rows(instance, model, [&](std::size_t i, std::size_t) {
        return instance.catalog.compute_units(instance.requests[i].vnf);
    });

    // Reliability (50) and anchoring (51), in log space. a_ij < 0: the
    // table checks it, and constraint (50) divides through these, so a
    // zero or positive coefficient would silently invert the row's meaning.
    const vnf::OffsiteLogTable log_failure(instance.catalog, instance.network.reliabilities());
    for (std::size_t i = 0; i < n; ++i) {
        const workload::Request& r = instance.requests[i];
        const std::span<const double> a = log_failure.row(r.vnf);
        double lower_li = 0.0;
        for (const double a_ij : a) lower_li += a_ij;
        const double log_target = common::log1m(r.requirement);
        VNFR_CHECK(log_target < 0.0, "requirement R_i must be positive for request ", i);

        // (50): sum_j a_ij Y_ij - ln(1-R_i) X_i <= 0.
        std::vector<std::pair<std::size_t, double>> meet;
        for (std::size_t j = 0; j < m; ++j) meet.emplace_back(*model.y_vars[i][j], a[j]);
        meet.emplace_back(model.x_vars[i], -log_target);
        model.lp.add_row(std::move(meet), opt::Relation::kLe, 0.0);

        // (51): sum_j a_ij Y_ij - L_i X_i >= 0 forces Y.. = 0 when X_i = 0.
        if (anchor_rejected_requests) {
            std::vector<std::pair<std::size_t, double>> anchor;
            for (std::size_t j = 0; j < m; ++j) {
                anchor.emplace_back(*model.y_vars[i][j], a[j]);
            }
            anchor.emplace_back(model.x_vars[i], -lower_li);
            model.lp.add_row(std::move(anchor), opt::Relation::kGe, 0.0);
        }
    }
    return model;
}

OfflineResult solve_offline(const Instance& instance, Scheme scheme,
                            const OfflineConfig& config) {
    // The offline solver only reports objective values, so the off-site
    // model omits the anchoring rows (see build_offsite_model).
    const OfflineModel model =
        scheme == Scheme::kOnsite
            ? build_onsite_model(instance)
            : build_offsite_model(instance, /*anchor_rejected_requests=*/false);
    OfflineResult out;

    // Presolve strips fixed columns and redundant rows before the simplex.
    const opt::PresolveResult pre = opt::presolve(model.lp);
    if (!pre.infeasible) {
        const opt::LpSolution relax = opt::solve_lp(pre.reduced, config.lp);
        if (relax.status == opt::SolveStatus::kOptimal) {
            out.lp_optimal = true;
            out.lp_bound = relax.objective + pre.objective_offset;
        }
    }

    if (config.run_ilp) {
        opt::BnbOptions bnb = config.bnb;
        bnb.lp_options = config.lp;
        const opt::IlpSolution ilp = opt::solve_ilp(model.lp, model.binaries, bnb);
        out.has_ilp = ilp.has_incumbent;
        out.ilp_value = ilp.objective;
        out.ilp_proven = ilp.proven_optimal;
        out.bnb_nodes = ilp.nodes_explored;
        // A proven B&B bound can tighten (never loosen) the LP bound.
        if (ilp.has_incumbent && out.lp_optimal) {
            out.lp_bound = std::min(out.lp_bound, ilp.best_bound);
        }
    }
    return out;
}

}  // namespace vnfr::core
