// The Markov up/down failure model: generate_markov_schedule replayed
// through the recovery engine under RecoveryPolicy::kNone.
#include <gtest/gtest.h>

#include <limits>

#include "common/contracts.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"
#include "sim/recovery_engine.hpp"
#include "sim/recovery_faults.hpp"
#include "sim/recovery_study.hpp"

namespace vnfr::sim {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

core::Decision admit(std::int64_t request, std::vector<core::Site> sites) {
    core::Decision d;
    d.admitted = true;
    d.placement = core::Placement{RequestId{request}, std::move(sites)};
    return d;
}

/// Slots cloudlet 0 spends down over the horizon, and its number of outages.
struct CloudletDowntime {
    std::size_t down_slots{0};
    std::size_t outages{0};
};

CloudletDowntime cloudlet_downtime(const core::Instance& inst, const FaultSchedule& schedule) {
    CloudletDowntime out;
    for (const FaultEvent& e : schedule.events) {
        EXPECT_EQ(e.kind, FaultKind::kTransientBlip);
        out.down_slots += static_cast<std::size_t>(std::min(e.down_slots, inst.horizon - e.slot));
        ++out.outages;
    }
    return out;
}

FaultSchedule markov(const core::Instance& inst, const std::vector<core::Decision>& decisions,
                     MarkovFaultConfig cfg = {}, std::uint64_t seed = 0xfa11) {
    return generate_markov_schedule(inst, decisions, cfg, seed);
}

RecoveryReport replay(const core::Instance& inst, const std::vector<core::Decision>& decisions,
                      MarkovFaultConfig cfg = {}, std::uint64_t seed = 0xfa11) {
    return run_recovery_study(inst, decisions, markov(inst, decisions, cfg, seed));
}

TEST(AvailabilityProcess, RejectsBadMttr) {
    const auto inst = small_instance({0.99}, 10.0, 5, {});
    EXPECT_THROW(markov(inst, {}, {.cloudlet_mttr_slots = 0.5}), common::ContractViolation);
    EXPECT_THROW(markov(inst, {}, {.instance_mttr_slots = 0.0}), common::ContractViolation);
}

TEST(AvailabilityProcess, StationaryUpFractionMatchesReliability) {
    // Long-run fraction of up-slots of the Markov chain must converge to
    // the configured reliability, independent of the repair time.
    const auto inst = small_instance({0.9}, 10.0, 200000, {});
    for (const double mttr : {1.0, 3.0, 8.0}) {
        const CloudletDowntime d =
            cloudlet_downtime(inst, markov(inst, {}, {.cloudlet_mttr_slots = mttr}, 7));
        EXPECT_NEAR(1.0 - static_cast<double>(d.down_slots) / static_cast<double>(inst.horizon),
                    0.9, 0.01)
            << "mttr=" << mttr;
    }
}

TEST(AvailabilityProcess, LongerMttrMeansLongerOutages) {
    const auto inst = small_instance({0.9}, 10.0, 200000, {});
    const auto mean_outage_length = [&](double mttr) {
        const CloudletDowntime d =
            cloudlet_downtime(inst, markov(inst, {}, {.cloudlet_mttr_slots = mttr}, 11));
        return d.outages == 0
                   ? 0.0
                   : static_cast<double>(d.down_slots) / static_cast<double>(d.outages);
    };
    EXPECT_NEAR(mean_outage_length(2.0), 2.0, 0.3);
    EXPECT_NEAR(mean_outage_length(6.0), 6.0, 0.9);
}

TEST(AvailabilityProcess, ServingReplicaPrefersFirstSite) {
    // Site 0 holds two replicas on cloudlet 0, site 1 one on cloudlet 1.
    // The engine serves from the first reachable (site, replica) and moves
    // back as soon as it is reachable again.
    const auto inst = small_instance({0.999, 0.999}, 10.0, 10,
                                     {make_request(0, 0, 0.9, 0, 10, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 2}, core::Site{CloudletId{1}, 1}})};
    FaultEvent outage;
    outage.slot = 2;
    outage.kind = FaultKind::kInstanceOutage;
    outage.down_slots = 2;
    outage.request_index = 0;
    FaultEvent blip;
    blip.slot = 6;
    blip.kind = FaultKind::kTransientBlip;
    blip.cloudlet = CloudletId{0};
    blip.down_slots = 2;
    FaultSchedule schedule;
    schedule.events = {outage, blip};
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule);
    EXPECT_EQ(r.served_slots, 10u);
    EXPECT_EQ(r.outages, 0u);
    EXPECT_EQ(r.local_failovers, 2u);   // replica 0 -> 1 at slot 2, back at 4
    EXPECT_EQ(r.remote_failovers, 2u);  // site 0 -> 1 at slot 6, back at 8
    EXPECT_EQ(r.instances_lost, 0u);    // outages keep their state
}

TEST(AvailabilityProcess, TrackValidatesPlacements) {
    const auto inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    EXPECT_THROW(markov(inst, {admit(0, {core::Site{CloudletId{9}, 1}})}),
                 std::invalid_argument);
    EXPECT_THROW(markov(inst, {admit(0, {core::Site{CloudletId{0}, 0}})}),
                 std::invalid_argument);
}

TEST(FailoverStudy, AccountingIsConsistent) {
    common::Rng rng(401);
    const core::Instance inst = random_instance(rng, 80, 4, 15, 20, 40);
    core::OffsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    const RecoveryReport report = replay(inst, result.decisions);
    EXPECT_EQ(report.served_slots + report.disrupted_slots, report.request_slots);
    EXPECT_GT(report.request_slots, 0u);
    EXPECT_GE(report.availability(), 0.0);
    EXPECT_LE(report.availability(), 1.0);
    EXPECT_EQ(report.instances_lost, 0u);
    EXPECT_EQ(report.capacity_violations, 0u);
}

TEST(FailoverStudy, DeterministicBySeed) {
    common::Rng rng(403);
    const core::Instance inst = random_instance(rng, 60, 3, 12);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    const FaultSchedule a = markov(inst, result.decisions, {}, 99);
    const FaultSchedule b = markov(inst, result.decisions, {}, 99);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t n = 0; n < a.events.size(); ++n) {
        EXPECT_EQ(a.events[n].slot, b.events[n].slot);
        EXPECT_EQ(a.events[n].kind, b.events[n].kind);
        EXPECT_EQ(a.events[n].down_slots, b.events[n].down_slots);
    }
    const RecoveryReport ra = run_recovery_study(inst, result.decisions, a);
    const RecoveryReport rb = run_recovery_study(inst, result.decisions, b);
    EXPECT_EQ(ra.served_slots, rb.served_slots);
    EXPECT_EQ(ra.local_failovers, rb.local_failovers);
    EXPECT_EQ(ra.remote_failovers, rb.remote_failovers);
    EXPECT_EQ(ra.outages, rb.outages);
}

TEST(FailoverStudy, OnsitePlacementsNeverFailOverRemotely) {
    // Single-site placements have nowhere remote to go: all failovers are
    // local replica switches.
    common::Rng rng(405);
    const core::Instance inst = random_instance(rng, 100, 4, 15, 20, 40);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    const RecoveryReport report = replay(inst, result.decisions);
    EXPECT_EQ(report.remote_failovers, 0u);
    EXPECT_GT(report.local_failovers, 0u);
}

TEST(FailoverStudy, OffsiteSurvivesCloudletOutagesBetter) {
    // Same workload under both schemes with bursty cloudlet failures: the
    // off-site schedule must deliver at least as high availability (it is
    // the paper's core motivation for geographic redundancy).
    common::Rng rng(407);
    const core::Instance inst = random_instance(rng, 120, 4, 15, 30, 50);
    core::OnsitePrimalDual onsite(inst);
    core::OffsitePrimalDual offsite(inst);
    const core::ScheduleResult on_result = core::run_online(inst, onsite);
    const core::ScheduleResult off_result = core::run_online(inst, offsite);
    // Long cloudlet outages make one replay noisy (a per-replay standard
    // deviation of ~0.05 on-site), so pool 200 replays of each schedule.
    RecoveryStudyConfig cfg;
    cfg.injector = markov_injector({.cloudlet_mttr_slots = 6.0});
    cfg.replications = 200;
    const RecoveryReport on_report =
        run_recovery_replications(inst, on_result.decisions, cfg).total;
    const RecoveryReport off_report =
        run_recovery_replications(inst, off_result.decisions, cfg).total;
    EXPECT_GT(off_report.availability(), on_report.availability() - 0.005);
    // And it does so by using remote failovers, which on-site cannot.
    EXPECT_GT(off_report.remote_failovers, 0u);
}

TEST(FailoverStudy, SizeMismatchThrows) {
    common::Rng rng(409);
    const core::Instance inst = random_instance(rng, 10, 2, 8);
    EXPECT_THROW(markov(inst, {}), std::invalid_argument);
}

TEST(FailoverStudy, RejectsNonPositiveOrNonFiniteMttr) {
    common::Rng rng(411);
    const core::Instance inst = random_instance(rng, 10, 2, 8);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    for (const double bad :
         {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(markov(inst, result.decisions, {.cloudlet_mttr_slots = bad}),
                     common::ContractViolation)
            << "cloudlet_mttr_slots=" << bad;
        EXPECT_THROW(markov(inst, result.decisions, {.instance_mttr_slots = bad}),
                     common::ContractViolation)
            << "instance_mttr_slots=" << bad;
    }
}

TEST(FailoverStudy, ReplicationsRejectZero) {
    common::Rng rng(413);
    const core::Instance inst = random_instance(rng, 10, 2, 8);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    RecoveryStudyConfig cfg;
    cfg.injector = markov_injector({});
    cfg.replications = 0;
    EXPECT_THROW(run_recovery_replications(inst, result.decisions, cfg),
                 common::ContractViolation);
}

}  // namespace
}  // namespace vnfr::sim
