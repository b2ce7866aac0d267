// End-to-end pipelines across every module: instance synthesis from real
// topologies, all five algorithms, offline bounds, failure injection, and
// trace replay.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/instance.hpp"
#include "core/offline.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/recovery_study.hpp"
#include "workload/trace_io.hpp"

namespace vnfr {
namespace {

core::InstanceConfig standard_config(std::size_t requests) {
    core::InstanceConfig cfg;
    cfg.topology = "abilene";
    cfg.cloudlets.count = 6;
    cfg.cloudlets.capacity_min = 20;
    cfg.cloudlets.capacity_max = 40;
    cfg.workload.horizon = 20;
    cfg.workload.count = requests;
    cfg.workload.duration_max = 6;
    return cfg;
}

class TopologyPipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TopologyPipelineTest, AllAlgorithmsRunCleanlyOnRealTopologies) {
    common::Rng rng(2024);
    core::InstanceConfig cfg = standard_config(60);
    cfg.topology = GetParam();
    const core::Instance inst = core::make_instance(cfg, rng);

    for (const sim::Algorithm a :
         {sim::Algorithm::kOnsitePrimalDual, sim::Algorithm::kOnsitePrimalDualPure,
          sim::Algorithm::kOnsiteGreedy, sim::Algorithm::kOffsitePrimalDual,
          sim::Algorithm::kOffsiteGreedy, sim::Algorithm::kHybridPrimalDual}) {
        const auto scheduler = sim::make_scheduler(a, inst);
        const core::ScheduleResult result = core::run_online(inst, *scheduler);
        // Every admitted placement must honour its reliability requirement.
        const sim::PlacementStats stats = sim::placement_stats(inst, result.decisions);
        EXPECT_GE(stats.min_slack, -1e-12) << sim::algorithm_name(a);
        if (a != sim::Algorithm::kOnsitePrimalDualPure) {
            EXPECT_DOUBLE_EQ(result.max_overshoot, 0.0) << sim::algorithm_name(a);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologyPipelineTest,
                         ::testing::Values("abilene", "nsfnet", "geant", "att"));

TEST(Integration, OnlineNeverBeatsOfflineBound) {
    common::Rng rng(99);
    const core::Instance inst = core::make_instance(standard_config(40), rng);
    const core::OfflineResult onsite =
        core::solve_offline(inst, core::Scheme::kOnsite, {.run_ilp = false});
    const core::OfflineResult offsite =
        core::solve_offline(inst, core::Scheme::kOffsite, {.run_ilp = false});
    ASSERT_TRUE(onsite.lp_optimal);
    ASSERT_TRUE(offsite.lp_optimal);

    const auto alg1 = sim::make_scheduler(sim::Algorithm::kOnsitePrimalDual, inst);
    EXPECT_LE(core::run_online(inst, *alg1).revenue, onsite.lp_bound + 1e-6);
    const auto alg2 = sim::make_scheduler(sim::Algorithm::kOffsitePrimalDual, inst);
    EXPECT_LE(core::run_online(inst, *alg2).revenue, offsite.lp_bound + 1e-6);
}

TEST(Integration, TraceRoundTripReproducesSchedule) {
    common::Rng rng(123);
    const core::Instance inst = core::make_instance(standard_config(50), rng);

    // Serialize the workload, reload it, rebuild the instance around it.
    std::stringstream buffer;
    workload::write_trace(buffer, inst.requests);
    core::Instance replay = inst;
    replay.requests = workload::read_trace(buffer);
    replay.validate();

    const auto s1 = sim::make_scheduler(sim::Algorithm::kOnsitePrimalDual, inst);
    const auto s2 = sim::make_scheduler(sim::Algorithm::kOnsitePrimalDual, replay);
    const core::ScheduleResult r1 = core::run_online(inst, *s1);
    const core::ScheduleResult r2 = core::run_online(replay, *s2);
    EXPECT_DOUBLE_EQ(r1.revenue, r2.revenue);
    EXPECT_EQ(r1.admitted, r2.admitted);
}

TEST(Integration, FailureInjectionAcrossSchemes) {
    common::Rng rng(321);
    const core::Instance inst = core::make_instance(standard_config(80), rng);
    sim::RecoveryStudyConfig cfg;
    cfg.injector = sim::markov_injector({});
    for (const sim::Algorithm a :
         {sim::Algorithm::kOnsitePrimalDual, sim::Algorithm::kOffsitePrimalDual}) {
        const auto scheduler = sim::make_scheduler(a, inst);
        const core::ScheduleResult result = core::run_online(inst, *scheduler);
        const sim::RecoveryStudyOutcome out =
            sim::run_recovery_replications(inst, result.decisions, cfg);
        if (out.total.request_slots > 200) {
            EXPECT_GE(out.total.availability(), 0.85) << sim::algorithm_name(a);
        }
    }
}

TEST(Integration, OffsiteSpreadsAcrossDistinctAps) {
    common::Rng rng(555);
    const core::Instance inst = core::make_instance(standard_config(60), rng);
    const auto scheduler = sim::make_scheduler(sim::Algorithm::kOffsitePrimalDual, inst);
    const core::ScheduleResult result = core::run_online(inst, *scheduler);
    const sim::PlacementStats stats = sim::placement_stats(inst, result.decisions);
    ASSERT_GT(stats.admitted, 0u);
    // Multi-site placements must have positive inter-site hop distance
    // whenever any request needed more than one site.
    if (stats.mean_sites > 1.0) {
        EXPECT_GT(stats.mean_pairwise_hops, 0.0);
    }
}

TEST(Integration, ReliabilityRatioKnobWidensReliabilityRange) {
    core::InstanceConfig cfg = standard_config(10);
    cfg.cloudlets.reliability_max = 0.999;
    cfg.set_reliability_ratio(1.05);
    EXPECT_NEAR(cfg.cloudlets.reliability_min, 0.999 / 1.05, 1e-12);
    EXPECT_THROW(cfg.set_reliability_ratio(0.9), std::invalid_argument);
}

TEST(Integration, InstanceValidationCatchesCorruption) {
    common::Rng rng(777);
    core::Instance inst = core::make_instance(standard_config(10), rng);
    inst.requests[0].requirement = 1.5;
    EXPECT_THROW(inst.validate(), std::invalid_argument);
    inst.requests[0].requirement = 0.9;
    inst.requests[0].duration = inst.horizon + 5;
    EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Integration, InstanceValidationRejectsNaNRequirementAndPayment) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    common::Rng rng(778);
    core::Instance inst = core::make_instance(standard_config(10), rng);
    inst.requests[3].requirement = nan;
    EXPECT_THROW(inst.validate(), std::invalid_argument);
    EXPECT_THROW(core::validate_request(inst, inst.requests[3]), std::invalid_argument);
    inst.requests[3].requirement = 0.9;
    inst.validate();
    inst.requests[3].payment = nan;
    EXPECT_THROW(inst.validate(), std::invalid_argument);
    EXPECT_THROW(core::validate_request(inst, inst.requests[3]), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr
