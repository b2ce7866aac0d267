// Empirical validation of the paper's theory (Theorem 1 and Lemma 8):
//   * the pure Algorithm 1 collects at least OPT / (1 + a_max) revenue,
//   * its per-cloudlet capacity overshoot stays within the xi bound,
//   * Algorithm 2 never violates capacity and never beats the offline bound.
#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "exhaustive.hpp"
#include "core/offline.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::random_instance;

class CompetitiveRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(CompetitiveRatioTest, PureAlgorithm1WithinTheorem1Ratio) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 3);
    // Tiny instances so the exhaustive optimum is exact.
    const Instance inst = random_instance(rng, 8, 3, 6, 4, 8);

    OnsitePrimalDual pure(inst, OnsitePrimalDualConfig{.enforce_capacity = false});
    const ScheduleResult online = run_online(inst, pure);
    const ExhaustiveResult opt = exhaustive_onsite(inst);
    const TheoryBounds bounds = compute_onsite_bounds(inst);

    EXPECT_GE(online.revenue * bounds.competitive_ratio, opt.revenue - 1e-6)
        << "online=" << online.revenue << " opt=" << opt.revenue
        << " ratio=" << bounds.competitive_ratio;
}

TEST_P(CompetitiveRatioTest, CapacityCheckedNeverExceedsOfflineOptimum) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 103 + 9);
    const Instance inst = random_instance(rng, 8, 3, 6, 4, 8);
    OnsitePrimalDual scheduler(inst);
    const ScheduleResult online = run_online(inst, scheduler);
    const ExhaustiveResult opt = exhaustive_onsite(inst);
    EXPECT_LE(online.revenue, opt.revenue + 1e-6);
}

TEST_P(CompetitiveRatioTest, Algorithm2NeverExceedsOfflineOptimum) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 107 + 11);
    const Instance inst = random_instance(rng, 6, 3, 6, 4, 8);
    OffsitePrimalDual scheduler(inst);
    const ScheduleResult online = run_online(inst, scheduler);
    const ExhaustiveResult opt = exhaustive_offsite(inst);
    EXPECT_LE(online.revenue, opt.revenue + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompetitiveRatioTest, ::testing::Range(0, 12));

class ViolationBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(ViolationBoundTest, PureAlgorithm1StaysWithinLemma8) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 109 + 17);
    // Tight capacities so the pure variant actually gets pushed toward the
    // violation regime.
    const Instance inst = random_instance(rng, 100, 3, 12, 5, 10);
    OnsitePrimalDual pure(inst, OnsitePrimalDualConfig{.enforce_capacity = false});
    const ScheduleResult result = run_online(inst, pure);
    const TheoryBounds bounds = compute_onsite_bounds(inst);

    // Lemma 8: usage at any cloudlet/slot is bounded in absolute terms and
    // (usage / cap) by xi.
    const edge::ResourceLedger& ledger = pure.ledger();
    for (std::size_t j = 0; j < ledger.cloudlet_count(); ++j) {
        const CloudletId c{static_cast<std::int64_t>(j)};
        for (TimeSlot t = 0; t < ledger.horizon(); ++t) {
            EXPECT_LE(ledger.usage(c, t), bounds.absolute_usage_bound + 1e-6);
        }
    }
    EXPECT_LE(result.max_load_factor, bounds.xi + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViolationBoundTest, ::testing::Range(0, 8));

TEST(Competitive, OfflineLpBoundDominatesEveryOnlineAlgorithm) {
    common::Rng rng(113);
    const Instance inst = random_instance(rng, 25, 3, 8, 10, 20);
    const OfflineResult onsite_off = solve_offline(inst, Scheme::kOnsite,
                                                   OfflineConfig{.run_ilp = false});
    const OfflineResult offsite_off = solve_offline(inst, Scheme::kOffsite,
                                                    OfflineConfig{.run_ilp = false});
    ASSERT_TRUE(onsite_off.lp_optimal);
    ASSERT_TRUE(offsite_off.lp_optimal);

    OnsitePrimalDual alg1(inst);
    EXPECT_LE(run_online(inst, alg1).revenue, onsite_off.lp_bound + 1e-6);
    OffsitePrimalDual alg2(inst);
    EXPECT_LE(run_online(inst, alg2).revenue, offsite_off.lp_bound + 1e-6);
}

}  // namespace
}  // namespace vnfr::core
