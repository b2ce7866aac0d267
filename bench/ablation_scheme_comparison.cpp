// Ablation: on-site vs off-site on identical workloads.
//
// The paper motivates the two schemes qualitatively (Section I): on-site
// gives fast local failover but is capped by the cloudlet's own
// reliability; off-site survives cloudlet failures at the cost of
// inter-cloudlet traffic. This bench quantifies the trade-off: revenue,
// compute consumed per admitted request, delivered availability (analytic,
// and empirical from Markov up/down fault replays under no recovery policy),
// and mean backup hop distance.
#include <iostream>

#include "bench_common.hpp"
#include "core/hybrid_primal_dual.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "core/schedule.hpp"
#include "report/table.hpp"
#include "sim/metrics.hpp"
#include "sim/recovery_study.hpp"

using namespace vnfr;

int main() {
    const std::size_t requests = bench::quick_mode() ? 200 : 500;
    const std::size_t seeds = bench::quick_mode() ? 2 : 5;

    std::cout << "== Ablation: on-site vs off-site backup schemes ==\n\n";

    struct Row {
        common::RunningStats revenue;
        common::RunningStats accepted;
        common::RunningStats compute_per_request;
        common::RunningStats availability;
        common::RunningStats empirical;
        common::RunningStats backup_hops;
    };
    Row onsite_row;
    Row offsite_row;
    Row hybrid_row;
    common::RunningStats hybrid_onsite_share;

    const std::uint64_t master = bench::scenario_seed("ablation-scheme-comparison", 0);
    for (std::size_t s = 0; s < seeds; ++s) {
        common::Rng rng = common::stream_rng(master, s);
        const core::Instance inst =
            core::make_instance(bench::paper_environment(requests), rng);

        const auto measure = [&](core::OnlineScheduler& scheduler, Row& row) {
            const core::ScheduleResult schedule = core::run_online(inst, scheduler);
            sim::RecoveryStudyConfig replay;
            replay.injector = sim::markov_injector({});
            replay.replications = bench::quick_mode() ? 2 : 4;
            replay.master_seed = common::stream_seed(master, 1000 + s);
            const sim::RecoveryStudyOutcome faults =
                sim::run_recovery_replications(inst, schedule.decisions, replay);
            const sim::PlacementStats stats = sim::placement_stats(inst, schedule.decisions);
            row.revenue.add(schedule.revenue);
            row.accepted.add(static_cast<double>(schedule.admitted));
            // Compute units reserved per admitted request (replicas x c(f) x
            // duration), normalized per request.
            double units = 0.0;
            for (std::size_t i = 0; i < schedule.decisions.size(); ++i) {
                const core::Decision& d = schedule.decisions[i];
                if (!d.admitted) continue;
                units += d.placement.compute_per_slot(
                             inst.catalog.compute_units(inst.requests[i].vnf)) *
                         inst.requests[i].duration;
            }
            if (schedule.admitted > 0) {
                row.compute_per_request.add(units / static_cast<double>(schedule.admitted));
            }
            row.availability.add(stats.mean_availability);
            row.empirical.add(faults.total.availability());
            row.backup_hops.add(stats.mean_pairwise_hops);
        };

        core::OnsitePrimalDual onsite(inst);
        measure(onsite, onsite_row);
        core::OffsitePrimalDual offsite(inst);
        measure(offsite, offsite_row);
        core::HybridPrimalDual hybrid(inst);
        measure(hybrid, hybrid_row);
        const double total = static_cast<double>(hybrid.onsite_admissions() +
                                                 hybrid.offsite_admissions());
        if (total > 0) {
            hybrid_onsite_share.add(
                static_cast<double>(hybrid.onsite_admissions()) / total);
        }
    }

    report::Table table(
        {"metric", "on-site (Alg 1)", "off-site (Alg 2)", "hybrid (extension)"});
    const auto add = [&](const char* name, const common::RunningStats& a,
                         const common::RunningStats& b, const common::RunningStats& c,
                         int precision) {
        table.add_row({name, report::format_mean_ci(a.mean(), a.ci95_halfwidth(), precision),
                       report::format_mean_ci(b.mean(), b.ci95_halfwidth(), precision),
                       report::format_mean_ci(c.mean(), c.ci95_halfwidth(), precision)});
    };
    add("revenue", onsite_row.revenue, offsite_row.revenue, hybrid_row.revenue, 1);
    add("accepted requests", onsite_row.accepted, offsite_row.accepted, hybrid_row.accepted,
        1);
    add("compute units / request", onsite_row.compute_per_request,
        offsite_row.compute_per_request, hybrid_row.compute_per_request, 2);
    add("analytic availability", onsite_row.availability, offsite_row.availability,
        hybrid_row.availability, 4);
    add("empirical availability", onsite_row.empirical, offsite_row.empirical,
        hybrid_row.empirical, 4);
    add("mean backup hop distance", onsite_row.backup_hops, offsite_row.backup_hops,
        hybrid_row.backup_hops, 2);
    std::cout << table.to_text() << "\nhybrid on-site admission share: "
              << report::format_mean_ci(hybrid_onsite_share.mean() * 100.0,
                                        hybrid_onsite_share.ci95_halfwidth() * 100.0, 1)
              << "%\n"
              << "\non-site places all replicas in one cloudlet (0 backup hops, capped by\n"
                 "r(c)); off-site spreads instances across APs and pays the hop cost; the\n"
                 "hybrid extension picks per request whichever is cheaper at current "
                 "prices.\n";
    return 0;
}
