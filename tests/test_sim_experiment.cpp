#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/contracts.hpp"
#include "helpers.hpp"
#include "sim/scenarios.hpp"

namespace vnfr::sim {
namespace {

core::Instance factory(common::Rng& rng) {
    return vnfr::testing::random_instance(rng, 20, 3, 8, 10, 20);
}

TEST(Experiment, AlgorithmNamesAreStable) {
    EXPECT_EQ(algorithm_name(Algorithm::kOnsitePrimalDual), "onsite-primal-dual");
    EXPECT_EQ(algorithm_name(Algorithm::kOnsitePrimalDualPure), "onsite-primal-dual-pure");
    EXPECT_EQ(algorithm_name(Algorithm::kOnsiteGreedy), "onsite-greedy");
    EXPECT_EQ(algorithm_name(Algorithm::kOffsitePrimalDual), "offsite-primal-dual");
    EXPECT_EQ(algorithm_name(Algorithm::kOffsiteGreedy), "offsite-greedy");
}

TEST(Experiment, MakeSchedulerMatchesName) {
    common::Rng rng(1);
    const core::Instance inst = factory(rng);
    for (const Algorithm a :
         {Algorithm::kOnsitePrimalDual, Algorithm::kOnsitePrimalDualPure,
          Algorithm::kOnsiteGreedy, Algorithm::kOffsitePrimalDual,
          Algorithm::kOffsiteGreedy}) {
        const auto scheduler = make_scheduler(a, inst);
        EXPECT_EQ(scheduler->name(), algorithm_name(a));
    }
}

TEST(Experiment, AggregatesConfiguredSeeds) {
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual, Algorithm::kOnsiteGreedy};
    cfg.seeds = 4;
    const ExperimentOutcome outcome = run_experiment(factory, cfg);
    ASSERT_EQ(outcome.per_algorithm.size(), 2u);
    for (const AlgorithmOutcome& a : outcome.per_algorithm) {
        EXPECT_EQ(a.revenue.count(), 4u);
        EXPECT_EQ(a.acceptance.count(), 4u);
        EXPECT_GT(a.revenue.mean(), 0.0);
        EXPECT_GT(a.acceptance.mean(), 0.0);
        EXPECT_LE(a.acceptance.max(), 1.0);
    }
}

TEST(Experiment, DeterministicForSameBaseSeed) {
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual};
    cfg.seeds = 3;
    cfg.base_seed = 1234;
    const ExperimentOutcome a = run_experiment(factory, cfg);
    const ExperimentOutcome b = run_experiment(factory, cfg);
    EXPECT_DOUBLE_EQ(a.per_algorithm[0].revenue.mean(), b.per_algorithm[0].revenue.mean());
    EXPECT_DOUBLE_EQ(a.per_algorithm[0].revenue.variance(),
                     b.per_algorithm[0].revenue.variance());
}

TEST(Experiment, DifferentBaseSeedsDiffer) {
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual};
    cfg.seeds = 3;
    cfg.base_seed = 1;
    const ExperimentOutcome a = run_experiment(factory, cfg);
    cfg.base_seed = 2;
    const ExperimentOutcome b = run_experiment(factory, cfg);
    EXPECT_NE(a.per_algorithm[0].revenue.mean(), b.per_algorithm[0].revenue.mean());
}

TEST(Experiment, OfflineBoundDominatesOnlineRevenue) {
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual, Algorithm::kOnsiteGreedy};
    cfg.seeds = 2;
    cfg.compute_offline = true;
    cfg.offline_scheme = core::Scheme::kOnsite;
    cfg.offline.run_ilp = false;  // LP bound only: fast and still an upper bound
    const ExperimentOutcome outcome = run_experiment(factory, cfg);
    ASSERT_EQ(outcome.offline_bound.count(), 2u);
    for (const AlgorithmOutcome& a : outcome.per_algorithm) {
        EXPECT_LE(a.revenue.mean(), outcome.offline_bound.mean() + 1e-6);
    }
}

TEST(Experiment, RejectsEmptyConfig) {
    // Config validation is a contract now (VNFR_CHECK), not ad-hoc throws.
    ExperimentConfig cfg;
    EXPECT_THROW(run_experiment(factory, cfg), common::ContractViolation);
    cfg.algorithms = {Algorithm::kOnsiteGreedy};
    cfg.seeds = 0;
    EXPECT_THROW(run_experiment(factory, cfg), common::ContractViolation);
}

TEST(Experiment, ChecksumPinnedOnPaperSeeds) {
    // Bit-for-bit pin of the aggregated online outcome on the paper
    // environment: all four online schedulers, two fixed base seeds. The
    // per-algorithm mean analytic availability feeds the checksum, so a
    // change to the placement availability formula or its summation order
    // moves it.
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual, Algorithm::kOnsiteGreedy,
                      Algorithm::kOffsitePrimalDual, Algorithm::kOffsiteGreedy};
    cfg.seeds = 3;
    cfg.threads = 1;
    const InstanceFactory paper = make_config_factory(paper_environment(200));
    const std::uint64_t pins[2] = {0x66868eef8782a8ccULL, 0x49f375670d39665bULL};
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        cfg.base_seed = seed;
        const ExperimentOutcome outcome = run_experiment(paper, cfg);
        for (const AlgorithmOutcome& a : outcome.per_algorithm) {
            EXPECT_GT(a.availability.mean(), 0.0) << algorithm_name(a.algorithm);
        }
        EXPECT_EQ(metrics_checksum(outcome), pins[seed - 1]) << "seed=" << seed;
    }
}

}  // namespace
}  // namespace vnfr::sim
