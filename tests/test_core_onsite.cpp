#include "core/onsite_primal_dual.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/verify.hpp"
#include "helpers.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

TEST(OnsitePrimalDual, FirstRequestAdmittedAtZeroDuals) {
    // All lambda start at 0, so the first request's dual price is 0 < pay.
    const Instance inst = small_instance({0.99, 0.98}, 100.0, 10,
                                         {make_request(0, 0, 0.95, 0, 2, 5.0)});
    OnsitePrimalDual scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    ASSERT_EQ(d.placement.sites.size(), 1u);
}

TEST(OnsitePrimalDual, PlacementUsesExactReplicaCount) {
    const Instance inst = small_instance({0.99}, 100.0, 10,
                                         {make_request(0, 0, 0.95, 0, 2, 5.0)});
    OnsitePrimalDual scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    const auto expected =
        vnf::min_onsite_replicas(0.99, inst.catalog.reliability(VnfTypeId{0}), 0.95);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(d.placement.sites[0].replicas, *expected);
}

TEST(OnsitePrimalDual, AdmittedPlacementMeetsRequirement) {
    const Instance inst = small_instance({0.99, 0.97}, 100.0, 10,
                                         {make_request(0, 0, 0.95, 0, 2, 5.0),
                                          make_request(1, 1, 0.9, 1, 3, 7.0)});
    OnsitePrimalDual scheduler(inst);
    for (const auto& r : inst.requests) {
        const Decision d = scheduler.decide(r);
        if (d.admitted) {
            EXPECT_GE(placement_availability(inst, r, d.placement),
                      r.requirement - 1e-12);
        }
    }
}

TEST(OnsitePrimalDual, RejectsWhenNoCloudletReliableEnough) {
    // Requirement 0.97 above every cloudlet reliability: infeasible anywhere.
    const Instance inst = small_instance({0.95, 0.96}, 100.0, 10,
                                         {make_request(0, 0, 0.97, 0, 2, 5.0)});
    OnsitePrimalDual scheduler(inst);
    EXPECT_FALSE(scheduler.decide(inst.requests[0]).admitted);
}

TEST(OnsitePrimalDual, DualPricesStartAtZero) {
    const Instance inst = small_instance({0.99}, 100.0, 5, {});
    OnsitePrimalDual scheduler(inst);
    for (TimeSlot t = 0; t < 5; ++t) {
        EXPECT_DOUBLE_EQ(scheduler.lambda(CloudletId{0}, t), 0.0);
    }
}

TEST(OnsitePrimalDual, DualUpdateOnlyTouchesWindowOfChosenCloudlet) {
    const Instance inst = small_instance({0.99, 0.99}, 100.0, 10,
                                         {make_request(0, 0, 0.95, 2, 3, 5.0)});
    OnsitePrimalDual scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    const CloudletId chosen = d.placement.sites[0].cloudlet;
    const CloudletId other{chosen == CloudletId{0} ? 1 : 0};
    for (TimeSlot t = 0; t < 10; ++t) {
        EXPECT_DOUBLE_EQ(scheduler.lambda(other, t), 0.0);
        if (t >= 2 && t < 5) {
            EXPECT_GT(scheduler.lambda(chosen, t), 0.0);
        } else {
            EXPECT_DOUBLE_EQ(scheduler.lambda(chosen, t), 0.0);
        }
    }
}

TEST(OnsitePrimalDual, DualUpdateMatchesEquation34) {
    const Instance inst = small_instance({0.99}, 100.0, 10,
                                         {make_request(0, 0, 0.95, 0, 2, 6.0)});
    // Pin the capacity scale at 1 to check the literal Eq. 34 arithmetic.
    OnsitePrimalDual scheduler(inst, OnsitePrimalDualConfig{.dual_capacity_scale = 1.0});
    const auto n = *vnf::min_onsite_replicas(0.99, inst.catalog.reliability(VnfTypeId{0}),
                                             0.95);
    const double demand = n * inst.catalog.compute_units(VnfTypeId{0});
    ASSERT_TRUE(scheduler.decide(inst.requests[0]).admitted);
    // lambda was 0: new = 0 * (1 + a/cap) + a * pay / (d * cap).
    const double expected = demand * 6.0 / (2.0 * 100.0);
    EXPECT_NEAR(scheduler.lambda(CloudletId{0}, 0), expected, 1e-12);
    EXPECT_NEAR(scheduler.lambda(CloudletId{0}, 1), expected, 1e-12);
}

TEST(OnsitePrimalDual, RejectsOncePriceExceedsPayment) {
    // Tiny capacity drives lambda up fast; a later identical request whose
    // dual price exceeds its payment must be rejected even with space left
    // under the pure (non-enforcing) variant.
    std::vector<workload::Request> requests;
    for (int i = 0; i < 40; ++i) {
        requests.push_back(make_request(i, 0, 0.9, 0, 1, 1.0));
    }
    const Instance inst = small_instance({0.99}, 4.0, 1, std::move(requests));
    OnsitePrimalDual scheduler(inst, OnsitePrimalDualConfig{.enforce_capacity = false});
    const ScheduleResult result = run_online(inst, scheduler);
    EXPECT_LT(result.admitted, inst.requests.size());
    EXPECT_GT(result.admitted, 0u);
}

TEST(OnsitePrimalDual, EnforcedVariantNeverOvershoots) {
    common::Rng rng(11);
    for (int trial = 0; trial < 5; ++trial) {
        const Instance inst = random_instance(rng, 60, 3, 12, 10, 20);
        OnsitePrimalDual scheduler(inst);
        const ScheduleResult result = run_online(inst, scheduler);
        EXPECT_DOUBLE_EQ(result.max_overshoot, 0.0);
        EXPECT_LE(result.max_load_factor, 1.0 + 1e-9);
    }
}

TEST(OnsitePrimalDual, DualFeasibilityInvariantHolds) {
    // Constraint (32): delta_i >= pay_i - min_j price_j(i). deltas are set
    // at arrival with equality and prices only grow, so at the end of the
    // run the inequality must hold for every request.
    common::Rng rng(13);
    const Instance inst = random_instance(rng, 50, 3, 12);
    OnsitePrimalDual scheduler(inst);
    run_online(inst, scheduler);
    ASSERT_EQ(scheduler.deltas().size(), inst.requests.size());
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        const workload::Request& r = inst.requests[i];
        double min_price = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < inst.network.cloudlet_count(); ++j) {
            const auto price =
                scheduler.dual_price(r, CloudletId{static_cast<std::int64_t>(j)});
            if (price) min_price = std::min(min_price, *price);
        }
        if (min_price == std::numeric_limits<double>::infinity()) continue;
        EXPECT_GE(scheduler.deltas()[i], r.payment - min_price - 1e-9)
            << "request " << i;
    }
}

TEST(OnsitePrimalDual, LambdaIsNonDecreasingOverArrivals) {
    common::Rng rng(17);
    const Instance inst = random_instance(rng, 40, 2, 10);
    OnsitePrimalDual scheduler(inst);
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

TEST(OnsitePrimalDual, RevenueEqualsSumOfAdmittedPayments) {
    common::Rng rng(19);
    const Instance inst = random_instance(rng, 80, 3, 15);
    OnsitePrimalDual scheduler(inst);
    const ScheduleResult result = run_online(inst, scheduler);
    double expected = 0.0;
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        if (result.decisions[i].admitted) expected += inst.requests[i].payment;
    }
    EXPECT_NEAR(result.revenue, expected, 1e-9);
}

TEST(OnsitePrimalDual, DeterministicAcrossRuns) {
    common::Rng rng(23);
    const Instance inst = random_instance(rng, 60, 3, 12);
    OnsitePrimalDual s1(inst);
    OnsitePrimalDual s2(inst);
    const ScheduleResult r1 = run_online(inst, s1);
    const ScheduleResult r2 = run_online(inst, s2);
    EXPECT_DOUBLE_EQ(r1.revenue, r2.revenue);
    EXPECT_EQ(r1.admitted, r2.admitted);
    for (std::size_t i = 0; i < r1.decisions.size(); ++i) {
        EXPECT_EQ(r1.decisions[i].admitted, r2.decisions[i].admitted);
    }
}

TEST(OnsitePrimalDual, SingleSitePlacementsOnly) {
    // On-site scheme: every admitted request occupies exactly one cloudlet.
    common::Rng rng(29);
    const Instance inst = random_instance(rng, 60, 4, 12);
    OnsitePrimalDual scheduler(inst);
    const ScheduleResult result = run_online(inst, scheduler);
    for (const Decision& d : result.decisions) {
        if (d.admitted) {
            EXPECT_EQ(d.placement.sites.size(), 1u);
            EXPECT_GE(d.placement.sites[0].replicas, 1);
        }
    }
}

TEST(OnsitePrimalDual, NameReflectsVariant) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {});
    EXPECT_EQ(OnsitePrimalDual(inst).name(), "onsite-primal-dual");
    EXPECT_EQ(OnsitePrimalDual(inst, {.enforce_capacity = false}).name(),
              "onsite-primal-dual-pure");
}

TEST(OnsitePrimalDual, DualScaleConfiguration) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {});
    // Explicit scale is honoured by the capacity-checked variant.
    OnsitePrimalDual explicit_scale(inst, OnsitePrimalDualConfig{.dual_capacity_scale = 3.5});
    EXPECT_DOUBLE_EQ(explicit_scale.dual_capacity_scale(), 3.5);
    // Auto scale derives >= 1 from the catalog.
    OnsitePrimalDual auto_scale(inst);
    EXPECT_GE(auto_scale.dual_capacity_scale(), 1.0);
    // The pure variant must follow Eq. 34 literally (scale forced to 1).
    OnsitePrimalDual pure(inst, OnsitePrimalDualConfig{.enforce_capacity = false,
                                                       .dual_capacity_scale = 5.0});
    EXPECT_DOUBLE_EQ(pure.dual_capacity_scale(), 1.0);
    EXPECT_THROW(OnsitePrimalDual(inst, OnsitePrimalDualConfig{.dual_capacity_scale = -1.0}),
                 std::invalid_argument);
}

TEST(OnsitePrimalDual, ScaledVariantFillsCapacityUnderSaturation) {
    // Heavy homogeneous load: the scaled prices must not strand capacity --
    // the scaled variant's revenue should beat the literal Eq. 34 pricing.
    std::vector<workload::Request> requests;
    for (int i = 0; i < 120; ++i) requests.push_back(make_request(i, 0, 0.9, 0, 2, 4.0));
    const Instance inst = small_instance({0.99, 0.98}, 40.0, 2, std::move(requests));
    OnsitePrimalDual literal(inst, OnsitePrimalDualConfig{.dual_capacity_scale = 1.0});
    OnsitePrimalDual scaled(inst);
    const double literal_revenue = run_online(inst, literal).revenue;
    const double scaled_revenue = run_online(inst, scaled).revenue;
    EXPECT_GE(scaled_revenue, literal_revenue);
}

}  // namespace
}  // namespace vnfr::core
