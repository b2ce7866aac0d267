#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "core/onsite_primal_dual.hpp"
#include "core/schedule.hpp"
#include "helpers.hpp"
#include "net/generators.hpp"
#include "sim/recovery_engine.hpp"
#include "sim/recovery_faults.hpp"
#include "sim/recovery_study.hpp"

namespace vnfr::sim {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

TEST(Simulator, FailureInjectionDisabledByDefault) {
    // Without injected faults the replay serves every active request-slot.
    common::Rng rng(19);
    const core::Instance inst = random_instance(rng, 30, 3, 10);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult schedule = run_online(inst, scheduler);
    const RecoveryReport replay =
        run_recovery_study(inst, schedule.decisions, FaultSchedule{});
    EXPECT_GT(replay.request_slots, 0u);
    EXPECT_EQ(replay.served_slots, replay.request_slots);
    EXPECT_EQ(replay.disrupted_slots, 0u);
    EXPECT_DOUBLE_EQ(replay.availability(), 1.0);
}

TEST(Simulator, FailureInjectionDeliversRequiredAvailability) {
    common::Rng rng(23);
    const core::Instance inst = random_instance(rng, 120, 4, 20, 30, 50);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult schedule = run_online(inst, scheduler);
    RecoveryStudyConfig cfg;
    cfg.injector = markov_injector({});
    cfg.replications = 20;
    cfg.master_seed = 777;
    const RecoveryReport replay =
        run_recovery_replications(inst, schedule.decisions, cfg).total;
    ASSERT_GT(replay.request_slots, 100u);
    // Every admitted placement has availability >= its requirement >= 0.90,
    // so the empirical availability pooled over 20 Markov replays (one
    // replay alone has a standard deviation of ~0.05) must clear 0.90
    // minus noise.
    EXPECT_GE(replay.availability(), 0.88);
}

TEST(Simulator, FailureInjectionDeterministicBySeed) {
    common::Rng rng(29);
    const core::Instance inst = random_instance(rng, 60, 3, 12);
    core::OnsitePrimalDual s1(inst);
    core::OnsitePrimalDual s2(inst);
    const core::ScheduleResult r1 = run_online(inst, s1);
    const core::ScheduleResult r2 = run_online(inst, s2);
    const RecoveryReport a = run_recovery_study(
        inst, r1.decisions,
        generate_markov_schedule(inst, r1.decisions, {}, 555));
    const RecoveryReport b = run_recovery_study(
        inst, r2.decisions,
        generate_markov_schedule(inst, r2.decisions, {}, 555));
    EXPECT_EQ(a.served_slots, b.served_slots);
    EXPECT_EQ(a.disrupted_slots, b.disrupted_slots);
}

TEST(Metrics, PlacementStatsBasics) {
    const auto inst = small_instance({0.99, 0.98}, 100.0, 6,
                                     {make_request(0, 0, 0.9, 0, 3, 5.0),
                                      make_request(1, 0, 0.9, 2, 2, 5.0)});
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = run_online(inst, scheduler);
    const PlacementStats stats = placement_stats(inst, result.decisions);
    EXPECT_EQ(stats.admitted, result.admitted);
    EXPECT_DOUBLE_EQ(stats.mean_sites, 1.0);  // on-site: one cloudlet each
    EXPECT_GE(stats.mean_replicas, 1.0);
    EXPECT_GE(stats.min_slack, 0.0);  // requirements honoured
    EXPECT_GT(stats.mean_availability, 0.9);
}

TEST(Metrics, SizeMismatchThrows) {
    common::Rng rng(37);
    const core::Instance inst = random_instance(rng, 10, 2, 8);
    std::vector<core::Decision> wrong(3);
    EXPECT_THROW(placement_stats(inst, wrong), std::invalid_argument);
}

TEST(Metrics, AccessHopsFromRequestSources) {
    // Cloudlet at node 0 of a 6-ring; sources at nodes 0 and 3 -> access
    // hop distances 0 and 3, mean 1.5.
    core::Instance inst{edge::MecNetwork(net::ring(6)),
                        vnfr::testing::two_type_catalog(),
                        6,
                        {make_request(0, 0, 0.9, 0, 2, 5.0),
                         make_request(1, 0, 0.9, 1, 2, 5.0)}};
    inst.network.add_cloudlet(NodeId{0}, 100.0, 0.99);
    inst.requests[0].source = NodeId{0};
    inst.requests[1].source = NodeId{3};
    inst.validate();
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = run_online(inst, scheduler);
    ASSERT_EQ(result.admitted, 2u);
    const PlacementStats stats = placement_stats(inst, result.decisions);
    EXPECT_NEAR(stats.mean_access_hops, 1.5, 1e-9);
}

TEST(Metrics, AccessHopsZeroWithoutSources) {
    const auto inst = small_instance({0.99}, 100.0, 6,
                                     {make_request(0, 0, 0.9, 0, 2, 5.0)});
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = run_online(inst, scheduler);
    const PlacementStats stats = placement_stats(inst, result.decisions);
    EXPECT_DOUBLE_EQ(stats.mean_access_hops, 0.0);
}

}  // namespace
}  // namespace vnfr::sim
