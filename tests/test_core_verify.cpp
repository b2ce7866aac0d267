#include "core/verify.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/bounds.hpp"
#include "core/greedy.hpp"
#include "core/hybrid_primal_dual.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

bool has_violation(const VerificationReport& report, ScheduleViolation::Kind kind) {
    for (const ScheduleViolation& v : report.violations) {
        if (v.kind == kind) return true;
    }
    return false;
}

TEST(VerifySchedule, AcceptsEveryEnforcingScheduler) {
    common::Rng rng(301);
    const Instance inst = random_instance(rng, 80, 4, 12, 8, 15);
    OnsitePrimalDual a1(inst);
    OffsitePrimalDual a2(inst);
    OnsiteGreedy g1(inst);
    OffsiteGreedy g2(inst);
    HybridPrimalDual h(inst);
    for (OnlineScheduler* s :
         std::initializer_list<OnlineScheduler*>{&a1, &a2, &g1, &g2, &h}) {
        const ScheduleResult result = run_online(inst, *s);
        const VerificationReport report = verify_schedule(inst, result.decisions);
        EXPECT_TRUE(report.ok()) << s->name() << ": " << report.violations.size()
                                 << " violations";
        EXPECT_NEAR(report.revenue, result.revenue, 1e-9);
        EXPECT_EQ(report.admitted, result.admitted);
    }
}

TEST(VerifySchedule, PureVariantPassesOnlyWithTolerance) {
    common::Rng rng(303);
    // Tight capacity so the pure variant actually violates.
    const Instance inst = random_instance(rng, 120, 3, 12, 5, 8);
    OnsitePrimalDual pure(inst, OnsitePrimalDualConfig{.enforce_capacity = false});
    const ScheduleResult result = run_online(inst, pure);
    if (result.max_overshoot > 0.0) {
        const VerificationReport strict = verify_schedule(inst, result.decisions, 1.0);
        EXPECT_TRUE(has_violation(strict, ScheduleViolation::Kind::kCapacityExceeded));
    }
    const double xi = compute_onsite_bounds(inst).xi;
    const VerificationReport relaxed = verify_schedule(inst, result.decisions, xi);
    EXPECT_TRUE(relaxed.ok()) << "Lemma 8 tolerance must admit the pure schedule";
}

TEST(VerifySchedule, DetectsDecisionCountMismatch) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    const VerificationReport report = verify_schedule(inst, {});
    EXPECT_TRUE(has_violation(report, ScheduleViolation::Kind::kDecisionCountMismatch));
}

TEST(VerifySchedule, DetectsEmptyPlacement) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    std::vector<Decision> decisions(1);
    decisions[0].admitted = true;  // admitted but no sites
    const VerificationReport report = verify_schedule(inst, decisions);
    EXPECT_TRUE(has_violation(report, ScheduleViolation::Kind::kEmptyPlacement));
}

TEST(VerifySchedule, DetectsUnknownCloudletAndBadReplicas) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    std::vector<Decision> decisions(1);
    decisions[0].admitted = true;
    decisions[0].placement = Placement{RequestId{0}, {Site{CloudletId{7}, 1}}};
    EXPECT_TRUE(has_violation(verify_schedule(inst, decisions),
                              ScheduleViolation::Kind::kUnknownCloudlet));
    decisions[0].placement = Placement{RequestId{0}, {Site{CloudletId{0}, 0}}};
    EXPECT_TRUE(has_violation(verify_schedule(inst, decisions),
                              ScheduleViolation::Kind::kNonPositiveReplicas));
}

TEST(VerifySchedule, DetectsDuplicateSites) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    std::vector<Decision> decisions(1);
    decisions[0].admitted = true;
    decisions[0].placement =
        Placement{RequestId{0}, {Site{CloudletId{0}, 1}, Site{CloudletId{0}, 1}}};
    EXPECT_TRUE(has_violation(verify_schedule(inst, decisions),
                              ScheduleViolation::Kind::kDuplicateSite));
}

TEST(VerifySchedule, DetectsCapacityOverrun) {
    // Capacity 3 but the placement needs 2 replicas x 2 units = 4.
    const Instance inst = small_instance({0.99}, 3.0, 5, {make_request(0, 1, 0.9, 0, 2, 5.0)});
    std::vector<Decision> decisions(1);
    decisions[0].admitted = true;
    decisions[0].placement = Placement{RequestId{0}, {Site{CloudletId{0}, 2}}};
    const VerificationReport report = verify_schedule(inst, decisions);
    EXPECT_TRUE(has_violation(report, ScheduleViolation::Kind::kCapacityExceeded));
    EXPECT_GT(report.max_load_factor, 1.0);
}

TEST(VerifySchedule, DetectsReliabilityShortfall) {
    // One replica of a 0.95-reliable VNF on a 0.99 cloudlet: availability
    // 0.9405 < requirement 0.95.
    const Instance inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.95, 0, 2, 5.0)});
    std::vector<Decision> decisions(1);
    decisions[0].admitted = true;
    decisions[0].placement = Placement{RequestId{0}, {Site{CloudletId{0}, 1}}};
    EXPECT_TRUE(has_violation(verify_schedule(inst, decisions),
                              ScheduleViolation::Kind::kReliabilityNotMet));
}

TEST(VerifySchedule, CapacityToleranceRelaxesExactlyToTheBound) {
    // Capacity 3, one site with 2 replicas x 2 units = 4 per slot: a load
    // factor of 4/3. Tolerances below it must flag (6)/(9); tolerances at
    // or above it (the Lemma 8 xi regime) must accept the same schedule.
    const Instance inst = small_instance({0.99}, 3.0, 5, {make_request(0, 1, 0.9, 0, 2, 5.0)});
    std::vector<Decision> decisions(1);
    decisions[0].admitted = true;
    decisions[0].placement = Placement{RequestId{0}, {Site{CloudletId{0}, 2}}};

    const VerificationReport strict = verify_schedule(inst, decisions, 1.0);
    EXPECT_TRUE(has_violation(strict, ScheduleViolation::Kind::kCapacityExceeded));
    const VerificationReport below = verify_schedule(inst, decisions, 4.0 / 3.0 - 0.01);
    EXPECT_TRUE(has_violation(below, ScheduleViolation::Kind::kCapacityExceeded));

    const VerificationReport at_bound = verify_schedule(inst, decisions, 4.0 / 3.0);
    EXPECT_FALSE(has_violation(at_bound, ScheduleViolation::Kind::kCapacityExceeded));
    const VerificationReport above = verify_schedule(inst, decisions, 2.0);
    EXPECT_TRUE(above.ok());
    // The load factor itself is reported against the *unrelaxed* capacity
    // regardless of tolerance.
    EXPECT_NEAR(above.max_load_factor, 4.0 / 3.0, 1e-12);
}

TEST(VerifySchedule, ToleranceDoesNotMaskOtherViolationKinds) {
    // A generous capacity tolerance must not excuse reliability shortfalls
    // or malformed placements.
    const Instance inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.95, 0, 2, 5.0)});
    std::vector<Decision> decisions(1);
    decisions[0].admitted = true;
    decisions[0].placement = Placement{RequestId{0}, {Site{CloudletId{0}, 1}}};
    const VerificationReport report = verify_schedule(inst, decisions, 100.0);
    EXPECT_TRUE(has_violation(report, ScheduleViolation::Kind::kReliabilityNotMet));
}

TEST(VerifySchedule, ReportAccumulatesRevenueAndAdmitted) {
    const Instance inst = small_instance(
        {0.99}, 50.0, 5,
        {make_request(0, 0, 0.9, 0, 2, 5.0), make_request(1, 0, 0.9, 1, 2, 7.5)});
    std::vector<Decision> decisions(2);
    decisions[0].admitted = true;
    decisions[0].placement = Placement{RequestId{0}, {Site{CloudletId{0}, 2}}};
    decisions[1].admitted = true;
    decisions[1].placement = Placement{RequestId{1}, {Site{CloudletId{0}, 2}}};
    const VerificationReport report = verify_schedule(inst, decisions);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.admitted, 2u);
    EXPECT_DOUBLE_EQ(report.revenue, 12.5);
}

TEST(VerifySchedule, RejectionIsAlwaysClean) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    std::vector<Decision> decisions(1);  // rejected by default
    const VerificationReport report = verify_schedule(inst, decisions);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.admitted, 0u);
    EXPECT_DOUBLE_EQ(report.revenue, 0.0);
}

TEST(AnalyticAvailability, SingleSiteMatchesEquation2) {
    const auto inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    const Placement p{RequestId{0}, {Site{CloudletId{0}, 3}}};
    EXPECT_NEAR(placement_availability(inst, inst.requests[0], p),
                vnf::onsite_availability(0.99, 0.95, 3), 1e-12);
}

TEST(AnalyticAvailability, SingleInstanceIsProduct) {
    // One instance at one site: r(f) r(c) = 0.95 * 0.98.
    const auto inst = small_instance({0.98}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    const Placement p{RequestId{0}, {Site{CloudletId{0}, 1}}};
    EXPECT_NEAR(placement_availability(inst, inst.requests[0], p), 0.95 * 0.98, 1e-12);
}

TEST(AnalyticAvailability, MultiSiteMatchesEquation10) {
    const auto inst = small_instance({0.98, 0.96}, 10.0, 5,
                                     {make_request(0, 0, 0.9, 0, 2, 5.0)});
    const Placement p{RequestId{0}, {Site{CloudletId{0}, 1}, Site{CloudletId{1}, 1}}};
    EXPECT_NEAR(placement_availability(inst, inst.requests[0], p),
                1.0 - (1.0 - 0.95 * 0.98) * (1.0 - 0.95 * 0.96), 1e-12);
}

TEST(AnalyticAvailability, OffsiteGrowsWithEverySite) {
    const auto inst = small_instance({0.95, 0.95, 0.95, 0.95, 0.95}, 10.0, 5,
                                     {make_request(0, 0, 0.9, 0, 2, 5.0)});
    Placement p{RequestId{0}, {}};
    double prev = 0.0;
    for (std::int64_t j = 0; j < 5; ++j) {
        p.sites.push_back(Site{CloudletId{j}, 1});
        const double avail = placement_availability(inst, inst.requests[0], p);
        EXPECT_GT(avail, prev) << j + 1 << " sites";
        prev = avail;
    }
}

TEST(AnalyticAvailability, MixedReplicaSites) {
    // 2 replicas at site A + 1 at site B: generalizes both schemes.
    const auto inst = small_instance({0.98, 0.96}, 10.0, 5,
                                     {make_request(0, 0, 0.9, 0, 2, 5.0)});
    const Placement p{RequestId{0}, {Site{CloudletId{0}, 2}, Site{CloudletId{1}, 1}}};
    const double site_a = 0.98 * (1.0 - 0.05 * 0.05);
    const double site_b = 0.96 * 0.95;
    EXPECT_NEAR(placement_availability(inst, inst.requests[0], p),
                1.0 - (1.0 - site_a) * (1.0 - site_b), 1e-12);
}

TEST(AnalyticAvailability, EmptyPlacementIsZero) {
    const auto inst = small_instance({0.98}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    const Placement p{RequestId{0}, {}};
    EXPECT_DOUBLE_EQ(placement_availability(inst, inst.requests[0], p), 0.0);
}

TEST(AnalyticAvailability, RejectsNonPositiveReplicas) {
    const auto inst = small_instance({0.98}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    const Placement p{RequestId{0}, {Site{CloudletId{0}, 0}}};
    EXPECT_THROW(placement_availability(inst, inst.requests[0], p), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::core
