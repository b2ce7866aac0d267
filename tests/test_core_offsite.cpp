#include "core/offsite_primal_dual.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <set>

#include "core/verify.hpp"
#include "helpers.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

TEST(OffsitePrimalDual, FirstRequestAdmitted) {
    const Instance inst = small_instance({0.99, 0.98, 0.97}, 100.0, 10,
                                         {make_request(0, 0, 0.95, 0, 2, 5.0)});
    OffsitePrimalDual scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    EXPECT_GE(d.placement.sites.size(), 1u);
}

TEST(OffsitePrimalDual, OneInstancePerSelectedCloudlet) {
    common::Rng rng(31);
    const Instance inst = random_instance(rng, 50, 4, 12);
    OffsitePrimalDual scheduler(inst);
    const ScheduleResult result = run_online(inst, scheduler);
    for (const Decision& d : result.decisions) {
        if (!d.admitted) continue;
        std::set<std::int64_t> used;
        for (const Site& s : d.placement.sites) {
            EXPECT_EQ(s.replicas, 1);  // off-site scheme: exactly one per site
            EXPECT_TRUE(used.insert(s.cloudlet.value).second) << "duplicate cloudlet";
        }
    }
}

TEST(OffsitePrimalDual, AdmittedPlacementsMeetRequirement) {
    common::Rng rng(37);
    const Instance inst = random_instance(rng, 60, 4, 12);
    OffsitePrimalDual scheduler(inst);
    const ScheduleResult result = run_online(inst, scheduler);
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
        const Decision& d = result.decisions[i];
        if (!d.admitted) continue;
        ++admitted;
        EXPECT_GE(placement_availability(inst, inst.requests[i], d.placement),
                  inst.requests[i].requirement - 1e-12);
    }
    EXPECT_GT(admitted, 0u);
}

TEST(OffsitePrimalDual, NeverViolatesCapacity) {
    // Theorem 2: capacity constraints are honoured by construction.
    common::Rng rng(41);
    for (int trial = 0; trial < 5; ++trial) {
        const Instance inst = random_instance(rng, 80, 4, 12, 8, 15);
        OffsitePrimalDual scheduler(inst);
        const ScheduleResult result = run_online(inst, scheduler);
        EXPECT_DOUBLE_EQ(result.max_overshoot, 0.0);
        EXPECT_LE(result.max_load_factor, 1.0 + 1e-9);
    }
}

TEST(OffsitePrimalDual, SelectionStopsAtRequirement) {
    // With one very reliable cloudlet and the rest weak, a modest
    // requirement should be met by few sites, not all of them.
    const Instance inst = small_instance({0.999, 0.95, 0.95, 0.95}, 100.0, 10,
                                         {make_request(0, 0, 0.9, 0, 2, 5.0)});
    OffsitePrimalDual scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    EXPECT_LT(d.placement.sites.size(), 4u);
    // Minimality: dropping the last-added site must break the requirement.
    Placement shorter = d.placement;
    shorter.sites.pop_back();
    if (!shorter.sites.empty()) {
        EXPECT_LT(placement_availability(inst, inst.requests[0], shorter), 0.9);
    }
}

TEST(OffsitePrimalDual, RejectsWhenRequirementUnreachable) {
    // Even all three cloudlets together: availability
    // 1 - (1 - 0.9*0.91)^3 ~= 0.994 < 0.995 with r_f = 0.9 (vnf 1 has 0.90).
    const Instance inst = small_instance({0.91, 0.91, 0.91}, 100.0, 10,
                                         {make_request(0, 1, 0.995, 0, 2, 5.0)});
    OffsitePrimalDual scheduler(inst);
    EXPECT_FALSE(scheduler.decide(inst.requests[0]).admitted);
}

TEST(OffsitePrimalDual, RejectionLeavesStateUntouched) {
    const Instance inst = small_instance({0.91, 0.91, 0.91}, 100.0, 10,
                                         {make_request(0, 1, 0.995, 0, 2, 5.0)});
    OffsitePrimalDual scheduler(inst);
    ASSERT_FALSE(scheduler.decide(inst.requests[0]).admitted);
    for (std::size_t j = 0; j < 3; ++j) {
        const CloudletId c{static_cast<std::int64_t>(j)};
        for (TimeSlot t = 0; t < 10; ++t) {
            EXPECT_DOUBLE_EQ(scheduler.lambda(c, t), 0.0);
            EXPECT_DOUBLE_EQ(scheduler.ledger().usage(c, t), 0.0);
        }
    }
}

TEST(OffsitePrimalDual, DualUpdateMatchesEquation67) {
    const Instance inst = small_instance({0.99}, 50.0, 10,
                                         {make_request(0, 0, 0.9, 0, 2, 4.0)});
    // Pin the capacity scale at 1 to check the literal Eq. 67 arithmetic.
    OffsitePrimalDual scheduler(inst, OffsitePrimalDualConfig{.dual_capacity_scale = 1.0});
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    const double rf = inst.catalog.reliability(VnfTypeId{0});
    const double c = inst.catalog.compute_units(VnfTypeId{0});
    const double ratio = std::log(1.0 - 0.9) / std::log(1.0 - rf * 0.99);
    // lambda was 0: new = ratio * c * pay / (d * cap).
    const double expected = ratio * c * 4.0 / (2.0 * 50.0);
    EXPECT_NEAR(scheduler.lambda(CloudletId{0}, 0), expected, 1e-12);
    EXPECT_NEAR(scheduler.lambda(CloudletId{0}, 1), expected, 1e-12);
    EXPECT_DOUBLE_EQ(scheduler.lambda(CloudletId{0}, 2), 0.0);
}

TEST(OffsitePrimalDual, LambdaGrowsMonotonically) {
    common::Rng rng(43);
    const Instance inst = random_instance(rng, 40, 3, 10);
    OffsitePrimalDual scheduler(inst);
    std::vector<double> last(inst.network.cloudlet_count() *
                                 static_cast<std::size_t>(inst.horizon),
                             0.0);
    for (const auto& r : inst.requests) {
        scheduler.decide(r);
        std::size_t k = 0;
        for (std::size_t j = 0; j < inst.network.cloudlet_count(); ++j) {
            for (TimeSlot t = 0; t < inst.horizon; ++t, ++k) {
                const double v =
                    scheduler.lambda(CloudletId{static_cast<std::int64_t>(j)}, t);
                EXPECT_GE(v, last[k] - 1e-12);
                last[k] = v;
            }
        }
    }
}

TEST(OffsitePrimalDual, PrefersCheaperCloudlets) {
    // Saturate cloudlet 0's duals with a stream of requests, then check the
    // next placement's first site is not the expensive cloudlet 0 when an
    // equally reliable alternative exists.
    std::vector<workload::Request> requests;
    for (int i = 0; i < 30; ++i) requests.push_back(make_request(i, 0, 0.9, 0, 1, 2.0));
    const Instance inst = small_instance({0.995, 0.995}, 1000.0, 1, std::move(requests));
    OffsitePrimalDual scheduler(inst);
    // After many admissions both cloudlets have prices; selection must still
    // meet requirements and alternate toward the cheaper one.
    const ScheduleResult result = run_online(inst, scheduler);
    std::size_t on_zero = 0;
    std::size_t on_one = 0;
    for (const Decision& d : result.decisions) {
        if (!d.admitted) continue;
        for (const Site& s : d.placement.sites) {
            (s.cloudlet == CloudletId{0} ? on_zero : on_one) += 1;
        }
    }
    EXPECT_GT(on_zero, 0u);
    EXPECT_GT(on_one, 0u) << "price-aware selection must spread load";
}

TEST(OffsitePrimalDual, NormalizedPriceZeroInitially) {
    const Instance inst = small_instance({0.99, 0.95}, 100.0, 10,
                                         {make_request(0, 0, 0.9, 0, 3, 5.0)});
    OffsitePrimalDual scheduler(inst);
    EXPECT_DOUBLE_EQ(scheduler.normalized_price(inst.requests[0], CloudletId{0}), 0.0);
    EXPECT_DOUBLE_EQ(scheduler.normalized_price(inst.requests[0], CloudletId{1}), 0.0);
}

TEST(OffsitePrimalDual, DualScaleConfiguration) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {});
    OffsitePrimalDual explicit_scale(inst,
                                     OffsitePrimalDualConfig{.dual_capacity_scale = 2.5});
    EXPECT_DOUBLE_EQ(explicit_scale.dual_capacity_scale(), 2.5);
    OffsitePrimalDual auto_scale(inst);
    EXPECT_GE(auto_scale.dual_capacity_scale(), 1.0);
    EXPECT_THROW(
        OffsitePrimalDual(inst, OffsitePrimalDualConfig{.dual_capacity_scale = -0.5}),
        std::invalid_argument);
}

TEST(OffsitePrimalDual, DeterministicAcrossRuns) {
    common::Rng rng(47);
    const Instance inst = random_instance(rng, 50, 3, 10);
    OffsitePrimalDual s1(inst);
    OffsitePrimalDual s2(inst);
    const ScheduleResult r1 = run_online(inst, s1);
    const ScheduleResult r2 = run_online(inst, s2);
    EXPECT_DOUBLE_EQ(r1.revenue, r2.revenue);
    EXPECT_EQ(r1.admitted, r2.admitted);
}

}  // namespace
}  // namespace vnfr::core
