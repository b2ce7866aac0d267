#include "core/hybrid_primal_dual.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "core/greedy.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "core/verify.hpp"
#include "helpers.hpp"
#include "sim/scenarios.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

TEST(HybridPrimalDual, AdmitsFirstRequest) {
    const Instance inst = small_instance({0.99, 0.98}, 100.0, 10,
                                         {make_request(0, 0, 0.95, 0, 2, 5.0)});
    HybridPrimalDual scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(scheduler.onsite_admissions() + scheduler.offsite_admissions(), 1u);
}

TEST(HybridPrimalDual, NeverViolatesCapacity) {
    common::Rng rng(201);
    for (int trial = 0; trial < 5; ++trial) {
        const Instance inst = random_instance(rng, 80, 4, 12, 8, 15);
        HybridPrimalDual scheduler(inst);
        const ScheduleResult result = run_online(inst, scheduler);
        EXPECT_DOUBLE_EQ(result.max_overshoot, 0.0);
        EXPECT_LE(result.max_load_factor, 1.0 + 1e-9);
    }
}

TEST(HybridPrimalDual, AdmittedPlacementsMeetRequirement) {
    common::Rng rng(203);
    const Instance inst = random_instance(rng, 80, 4, 12);
    HybridPrimalDual scheduler(inst);
    const ScheduleResult result = run_online(inst, scheduler);
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
        if (!result.decisions[i].admitted) continue;
        ++admitted;
        EXPECT_GE(placement_availability(inst, inst.requests[i],
                                         result.decisions[i].placement),
                  inst.requests[i].requirement - 1e-12);
    }
    EXPECT_GT(admitted, 0u);
}

TEST(HybridPrimalDual, UsesBothSchemesUnderMixedWorkload) {
    // Cloudlet reliabilities straddling the requirement range: high-R
    // requests need off-site (no single cloudlet reaches 0.995-ish), low-R
    // requests go on-site cheaply.
    std::vector<workload::Request> requests;
    for (int i = 0; i < 40; ++i) {
        const bool demanding = i % 2 == 0;
        requests.push_back(make_request(i, 0, demanding ? 0.995 : 0.9, 0, 2, 5.0));
    }
    const Instance inst =
        small_instance({0.99, 0.99, 0.99, 0.99}, 200.0, 4, std::move(requests));
    HybridPrimalDual scheduler(inst);
    run_online(inst, scheduler);
    EXPECT_GT(scheduler.onsite_admissions(), 0u);
    EXPECT_GT(scheduler.offsite_admissions(), 0u);
}

TEST(HybridPrimalDual, OffsiteRescuesOnsiteInfeasibleRequests) {
    // R above every cloudlet reliability: on-site can never serve, off-site
    // across two cloudlets can (1 - (1-0.95*0.96)^2 ~= 0.992 >= 0.97).
    const Instance inst = small_instance({0.96, 0.96}, 100.0, 10,
                                         {make_request(0, 0, 0.97, 0, 2, 5.0)});
    HybridPrimalDual scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(scheduler.offsite_admissions(), 1u);
    EXPECT_GE(d.placement.sites.size(), 2u);
}

TEST(HybridPrimalDual, RejectsImpossibleRequest) {
    const Instance inst = small_instance({0.91, 0.91}, 100.0, 10,
                                         {make_request(0, 1, 0.999, 0, 2, 5.0)});
    HybridPrimalDual scheduler(inst);
    EXPECT_FALSE(scheduler.decide(inst.requests[0]).admitted);
    EXPECT_EQ(scheduler.onsite_admissions(), 0u);
    EXPECT_EQ(scheduler.offsite_admissions(), 0u);
}

TEST(HybridPrimalDual, DeterministicAcrossRuns) {
    common::Rng rng(207);
    const Instance inst = random_instance(rng, 60, 3, 12);
    HybridPrimalDual s1(inst);
    HybridPrimalDual s2(inst);
    const ScheduleResult r1 = run_online(inst, s1);
    const ScheduleResult r2 = run_online(inst, s2);
    EXPECT_DOUBLE_EQ(r1.revenue, r2.revenue);
    EXPECT_EQ(s1.onsite_admissions(), s2.onsite_admissions());
    EXPECT_EQ(s1.offsite_admissions(), s2.offsite_admissions());
}

TEST(HybridPrimalDual, CompetitiveWithBothPureSchemes) {
    // Not a theorem, but a strong regression guard: across seeds the hybrid
    // should on average collect at least ~90% of the better pure scheme.
    common::Rng rng(209);
    double hybrid_total = 0.0;
    double best_pure_total = 0.0;
    for (int trial = 0; trial < 6; ++trial) {
        const Instance inst = random_instance(rng, 100, 4, 12, 10, 20);
        HybridPrimalDual hybrid(inst);
        OnsitePrimalDual onsite(inst);
        OffsitePrimalDual offsite(inst);
        hybrid_total += run_online(inst, hybrid).revenue;
        best_pure_total += std::max(run_online(inst, onsite).revenue,
                                    run_online(inst, offsite).revenue);
    }
    EXPECT_GE(hybrid_total, 0.9 * best_pure_total);
}

TEST(HybridPrimalDual, DecisionsPinnedOnPaperAndGoldenEnvironments) {
    // Bit-for-bit pin of the hybrid's decisions: admit flag, every site
    // (cloudlet, replica count) and the revenue bits per instance, over
    // fixed seeds of the paper and the golden environment. Reject reasons
    // are not mixed in; RejectReason.* covers them.
    common::Fnv1a digest;
    for (const bool paper : {true, false}) {
        for (const std::size_t n : {std::size_t{200}, std::size_t{800}, std::size_t{2000}}) {
            const InstanceConfig config =
                paper ? sim::paper_environment(n) : sim::golden_environment(n);
            for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                common::Rng rng(seed);
                const Instance inst = make_instance(config, rng);
                HybridPrimalDual scheduler(inst);
                const ScheduleResult result = run_online(inst, scheduler);
                for (const Decision& d : result.decisions) {
                    digest.mix(std::uint64_t{d.admitted});
                    for (const Site& site : d.placement.sites) {
                        digest.mix(static_cast<std::uint64_t>(site.cloudlet.value));
                        digest.mix(static_cast<std::uint64_t>(site.replicas));
                    }
                }
                digest.mix(result.revenue);
            }
        }
    }
    EXPECT_EQ(digest.value(), 0x22d4682c4414ce66ULL);
}

TEST(HybridPrimalDual, ConfigValidation) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {});
    EXPECT_EQ(HybridPrimalDual(inst).name(), "hybrid-primal-dual");
}

}  // namespace
}  // namespace vnfr::core
