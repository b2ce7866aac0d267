#include "sim/experiment.hpp"

#include <stdexcept>

#include "common/contracts.hpp"
#include "common/digest.hpp"
#include "common/thread_pool.hpp"
#include "core/greedy.hpp"
#include "core/hybrid_primal_dual.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "core/verify.hpp"

namespace vnfr::sim {

std::string_view algorithm_name(Algorithm algorithm) {
    switch (algorithm) {
        case Algorithm::kOnsitePrimalDual: return "onsite-primal-dual";
        case Algorithm::kOnsitePrimalDualPure: return "onsite-primal-dual-pure";
        case Algorithm::kOnsiteGreedy: return "onsite-greedy";
        case Algorithm::kOffsitePrimalDual: return "offsite-primal-dual";
        case Algorithm::kOffsiteGreedy: return "offsite-greedy";
        case Algorithm::kHybridPrimalDual: return "hybrid-primal-dual";
    }
    throw std::invalid_argument("algorithm_name: unknown algorithm");
}

std::unique_ptr<core::OnlineScheduler> make_scheduler(Algorithm algorithm,
                                                      const core::Instance& instance) {
    switch (algorithm) {
        case Algorithm::kOnsitePrimalDual:
            return std::make_unique<core::OnsitePrimalDual>(instance);
        case Algorithm::kOnsitePrimalDualPure:
            return std::make_unique<core::OnsitePrimalDual>(
                instance, core::OnsitePrimalDualConfig{.enforce_capacity = false});
        case Algorithm::kOnsiteGreedy:
            return std::make_unique<core::OnsiteGreedy>(instance);
        case Algorithm::kOffsitePrimalDual:
            return std::make_unique<core::OffsitePrimalDual>(instance);
        case Algorithm::kOffsiteGreedy:
            return std::make_unique<core::OffsiteGreedy>(instance);
        case Algorithm::kHybridPrimalDual:
            return std::make_unique<core::HybridPrimalDual>(instance);
    }
    throw std::invalid_argument("make_scheduler: unknown algorithm");
}

namespace {

/// Mean core::placement_availability over the admitted decisions, summed in
/// request order; 0 when nothing is admitted.
double mean_admitted_availability(const core::Instance& instance,
                                  const std::vector<core::Decision>& decisions) {
    double sum = 0.0;
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (!decisions[i].admitted) continue;
        sum += core::placement_availability(instance, instance.requests[i],
                                            decisions[i].placement);
        ++admitted;
    }
    return admitted > 0 ? sum / static_cast<double>(admitted) : 0.0;
}

/// Everything one replication contributes to the reduction. Stored per
/// replication index and folded into the RunningStats accumulators in
/// ascending index order, so the aggregate never depends on which thread
/// finished first.
struct ReplicationOutcome {
    struct PerAlgorithm {
        double revenue{0};
        double acceptance{0};
        double max_load_factor{0};
        double admitted{0};
        double availability{0};
    };
    std::vector<PerAlgorithm> algorithms;
    bool lp_ok{false};
    double lp_bound{0};
    bool ilp_ok{false};
    double ilp_value{0};
};

ReplicationOutcome run_replication(const InstanceFactory& factory,
                                   const ExperimentConfig& config, std::size_t k) {
    common::Rng rng = common::stream_rng(config.base_seed, k);
    const core::Instance instance = factory(rng);

    ReplicationOutcome rep;
    rep.algorithms.resize(config.algorithms.size());
    for (std::size_t ai = 0; ai < config.algorithms.size(); ++ai) {
        const auto scheduler = make_scheduler(config.algorithms[ai], instance);
        const core::ScheduleResult result = core::run_online(instance, *scheduler);
        ReplicationOutcome::PerAlgorithm& out = rep.algorithms[ai];
        out.revenue = result.revenue;
        out.acceptance = core::acceptance_ratio(result, instance);
        out.max_load_factor = result.max_load_factor;
        out.admitted = static_cast<double>(result.admitted);
        out.availability = mean_admitted_availability(instance, result.decisions);
    }

    if (config.compute_offline) {
        const core::OfflineResult off =
            core::solve_offline(instance, config.offline_scheme, config.offline);
        rep.lp_ok = off.lp_optimal;
        rep.lp_bound = off.lp_bound;
        rep.ilp_ok = off.has_ilp;
        rep.ilp_value = off.ilp_value;
    }
    return rep;
}

}  // namespace

std::uint64_t metrics_checksum(const ExperimentOutcome& outcome) {
    common::Fnv1a digest;
    for (const AlgorithmOutcome& a : outcome.per_algorithm) {
        digest.mix(static_cast<std::uint64_t>(a.algorithm));
        digest.mix(a.revenue);
        digest.mix(a.acceptance);
        digest.mix(a.max_load_factor);
        digest.mix(a.admitted);
        digest.mix(a.availability);
    }
    digest.mix(outcome.offline_bound);
    digest.mix(outcome.offline_ilp);
    return digest.value();
}

ExperimentOutcome run_experiment(const InstanceFactory& factory,
                                 const ExperimentConfig& config) {
    VNFR_CHECK(!config.algorithms.empty(), "run_experiment: no algorithms configured");
    VNFR_CHECK(config.seeds >= 1, "run_experiment: seeds must be >= 1");

    // Fan the replications out; each writes only its own pre-sized slot.
    std::vector<ReplicationOutcome> reps(config.seeds);
    {
        common::ThreadPool pool(config.threads);
        pool.parallel_for_blocked(0, config.seeds, 1,
                                  [&](std::size_t lo, std::size_t hi) {
                                      for (std::size_t k = lo; k < hi; ++k) {
                                          reps[k] = run_replication(factory, config, k);
                                      }
                                  });
    }

    // Ordered reduction: ascending replication index, independent of the
    // schedule above — the other half of the determinism contract.
    ExperimentOutcome outcome;
    outcome.per_algorithm.reserve(config.algorithms.size());
    for (const Algorithm a : config.algorithms) {
        outcome.per_algorithm.push_back(AlgorithmOutcome{a, {}, {}, {}, {}, {}});
    }
    for (std::size_t k = 0; k < config.seeds; ++k) {
        const ReplicationOutcome& rep = reps[k];
        for (std::size_t ai = 0; ai < config.algorithms.size(); ++ai) {
            AlgorithmOutcome& agg = outcome.per_algorithm[ai];
            agg.revenue.add(rep.algorithms[ai].revenue);
            agg.acceptance.add(rep.algorithms[ai].acceptance);
            agg.max_load_factor.add(rep.algorithms[ai].max_load_factor);
            agg.admitted.add(rep.algorithms[ai].admitted);
            agg.availability.add(rep.algorithms[ai].availability);
        }
        if (rep.lp_ok) outcome.offline_bound.add(rep.lp_bound);
        if (rep.ilp_ok) outcome.offline_ilp.add(rep.ilp_value);
    }
    return outcome;
}

}  // namespace vnfr::sim
