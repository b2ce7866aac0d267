#include <gtest/gtest.h>

#include <limits>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/hybrid_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"
#include "sim/recovery_engine.hpp"
#include "sim/recovery_faults.hpp"
#include "sim/recovery_study.hpp"
#include "sim/scenarios.hpp"

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

FaultEvent cloudlet_crash(TimeSlot slot, std::int64_t cloudlet, TimeSlot down_slots) {
    FaultEvent e;
    e.slot = slot;
    e.kind = FaultKind::kCloudletCrash;
    e.cloudlet = CloudletId{cloudlet};
    e.down_slots = down_slots;
    return e;
}

FaultEvent instance_crash(TimeSlot slot, std::size_t request_index, std::size_t site,
                          std::size_t replica) {
    FaultEvent e;
    e.slot = slot;
    e.kind = FaultKind::kInstanceCrash;
    e.request_index = request_index;
    e.site = site;
    e.replica = replica;
    return e;
}

/// One request (type 0: compute 1, r = 0.95) on cloudlet 0, cloudlet 0
/// crashes at slot 2 for 3 slots. Cloudlet 1 survives untouched.
struct CrashScenario {
    core::Instance instance = small_instance({0.98, 0.97}, 10.0, 10,
                                             {make_request(0, 0, 0.9, 0, 10, 5.0)});
    std::vector<core::Decision> decisions = {admit(0, {core::Site{CloudletId{0}, 1}})};
    FaultSchedule schedule;

    CrashScenario() {
        schedule.events = {cloudlet_crash(2, 0, 3)};
        schedule.cloudlet_crashes = 1;
    }
};

TEST(FaultInjector, DeterministicBySeed) {
    common::Rng rng(501);
    const core::Instance inst = random_instance(rng, 40, 3, 12);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    const FaultInjectorConfig cfg;
    const FaultSchedule a = generate_fault_schedule(inst, result.decisions, cfg, 7);
    const FaultSchedule b = generate_fault_schedule(inst, result.decisions, cfg, 7);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].slot, b.events[i].slot);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].cloudlet, b.events[i].cloudlet);
        EXPECT_EQ(a.events[i].down_slots, b.events[i].down_slots);
        EXPECT_EQ(a.events[i].request_index, b.events[i].request_index);
    }
    // A different seed yields a different event sequence.
    const auto fingerprint = [](const FaultSchedule& s) {
        std::uint64_t h = 0;
        for (const FaultEvent& e : s.events) {
            h = h * 1099511628211ULL + static_cast<std::uint64_t>(e.slot) * 7 +
                static_cast<std::uint64_t>(e.kind) * 3 +
                static_cast<std::uint64_t>(e.cloudlet.value);
        }
        return h;
    };
    const FaultSchedule c = generate_fault_schedule(inst, result.decisions, cfg, 8);
    EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(FaultInjector, CountsMatchEvents) {
    common::Rng rng(503);
    const core::Instance inst = random_instance(rng, 40, 3, 12);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    FaultInjectorConfig cfg;
    cfg.rack_failure_per_slot = 0.05;
    // Both generators: independent per-slot rates and the Markov model. The
    // schedules they emit pass run_recovery_study's validation.
    for (const FaultSchedule& s :
         {generate_fault_schedule(inst, result.decisions, cfg, 11),
          generate_markov_schedule(inst, result.decisions, MarkovFaultConfig{}, 11)}) {
        std::size_t crashes = 0, instances = 0, blips = 0, racks = 0, outages = 0;
        TimeSlot last_slot = 0;
        for (const FaultEvent& e : s.events) {
            EXPECT_GE(e.slot, last_slot);  // sorted by slot
            last_slot = e.slot;
            switch (e.kind) {
                case FaultKind::kCloudletCrash: ++crashes; break;
                case FaultKind::kInstanceCrash: ++instances; break;
                case FaultKind::kTransientBlip: ++blips; break;
                case FaultKind::kRackFailure: ++racks; break;
                case FaultKind::kInstanceOutage: ++outages; break;
            }
        }
        EXPECT_EQ(s.cloudlet_crashes, crashes);
        EXPECT_EQ(s.instance_crashes, instances);
        EXPECT_EQ(s.transient_blips, blips);
        EXPECT_EQ(s.rack_failures, racks);
        EXPECT_EQ(s.instance_outages, outages);
        EXPECT_GT(s.events.size(), 0u);
        EXPECT_NO_THROW(run_recovery_study(inst, result.decisions, s));
    }
}

TEST(FaultInjector, ValidatesConfig) {
    const auto inst = small_instance({0.99}, 10.0, 5, {});
    FaultInjectorConfig cfg;
    cfg.cloudlet_crash_per_slot = 1.5;
    EXPECT_THROW(generate_fault_schedule(inst, {}, cfg, 1), common::ContractViolation);
    cfg = FaultInjectorConfig{};
    cfg.cloudlet_mttr_slots = 0.0;
    EXPECT_THROW(generate_fault_schedule(inst, {}, cfg, 1), common::ContractViolation);
    cfg = FaultInjectorConfig{};
    cfg.cloudlet_mttr_slots = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(generate_fault_schedule(inst, {}, cfg, 1), common::ContractViolation);
    cfg = FaultInjectorConfig{};
    cfg.rack_span = 0;
    EXPECT_THROW(generate_fault_schedule(inst, {}, cfg, 1), common::ContractViolation);
    // Decisions must parallel the requests.
    const auto inst2 = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 1.0)});
    EXPECT_THROW(generate_fault_schedule(inst2, {}, FaultInjectorConfig{}, 1),
                 std::invalid_argument);
}

TEST(RecoveryEngine, PolicyNamesAreStable) {
    EXPECT_STREQ(to_string(RecoveryPolicy::kNone), "none");
    EXPECT_STREQ(to_string(RecoveryPolicy::kLocalRespawn), "local-respawn");
    EXPECT_STREQ(to_string(RecoveryPolicy::kRemoteMigrate), "remote-migrate");
    EXPECT_STREQ(to_string(RecoveryPolicy::kReadmit), "readmit");
    EXPECT_STREQ(to_string(FaultKind::kCloudletCrash), "cloudlet-crash");
    EXPECT_STREQ(to_string(FaultKind::kInstanceCrash), "instance-crash");
    EXPECT_STREQ(to_string(FaultKind::kTransientBlip), "transient-blip");
    EXPECT_STREQ(to_string(FaultKind::kRackFailure), "rack-failure");
}

TEST(RecoveryEngine, NonePolicyLeavesInstancesDead) {
    const CrashScenario s;
    const RecoveryReport r =
        run_recovery_study(s.instance, s.decisions, s.schedule, RecoveryConfig{});
    // Served slots 0..1, then dead for the rest of the window.
    EXPECT_EQ(r.request_slots, 10u);
    EXPECT_EQ(r.served_slots, 2u);
    EXPECT_EQ(r.disrupted_slots, 8u);
    EXPECT_EQ(r.cloudlet_crashes, 1u);
    EXPECT_EQ(r.instances_lost, 1u);
    EXPECT_EQ(r.outages, 1u);
    EXPECT_EQ(r.recovered_outages, 0u);
    EXPECT_EQ(r.local_respawns + r.remote_migrations + r.readmissions, 0u);
    EXPECT_EQ(r.sla_requests, 1u);
    EXPECT_EQ(r.sla_violations, 1u);
    EXPECT_DOUBLE_EQ(r.mean_delivered(), 0.2);
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEngine, LocalRespawnWaitsForRebootThenRecovers) {
    const CrashScenario s;
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kLocalRespawn;
    const RecoveryReport r = run_recovery_study(s.instance, s.decisions, s.schedule, cfg);
    // Cloudlet 0 is down over slots 2..4; the respawn lands at slot 5 and
    // serves from slot 6 (one slot of spin-up).
    EXPECT_EQ(r.local_respawns, 1u);
    EXPECT_EQ(r.served_slots, 6u);
    EXPECT_EQ(r.recovered_outages, 1u);
    EXPECT_EQ(r.recovery_slots_total, 4u);
    EXPECT_DOUBLE_EQ(r.mean_time_to_recover(), 4.0);
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEngine, RemoteMigrateMovesToSurvivingCloudlet) {
    const CrashScenario s;
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    const RecoveryReport r = run_recovery_study(s.instance, s.decisions, s.schedule, cfg);
    // Migration happens the slot the crash lands (slot 2): one new site on
    // the surviving cloudlet 1 (0.95 * 0.97 >= 0.9), serving from slot 3.
    EXPECT_EQ(r.remote_migrations, 1u);
    EXPECT_EQ(r.served_slots, 9u);
    EXPECT_EQ(r.outages, 1u);
    EXPECT_EQ(r.recovered_outages, 1u);
    // Service resumed after a gap, so it is a recovered outage, not a
    // seamless failover; and 9/10 delivered exactly meets R_i = 0.9.
    EXPECT_EQ(r.remote_failovers, 0u);
    EXPECT_EQ(r.sla_violations, 0u);
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEngine, InstantMigrationIsASeamlessRemoteFailover) {
    const CrashScenario s;
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    cfg.respawn_delay_slots = 0;  // zero spin-up: serves the same slot
    const RecoveryReport r = run_recovery_study(s.instance, s.decisions, s.schedule, cfg);
    EXPECT_EQ(r.served_slots, 10u);
    EXPECT_EQ(r.outages, 0u);
    EXPECT_EQ(r.remote_failovers, 1u);
    EXPECT_EQ(r.sla_violations, 0u);
}

TEST(RecoveryEngine, ReadmitRebuildsThePlacement) {
    const CrashScenario s;
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kReadmit;
    const RecoveryReport r = run_recovery_study(s.instance, s.decisions, s.schedule, cfg);
    EXPECT_EQ(r.readmissions, 1u);
    EXPECT_EQ(r.served_slots, 9u);
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEngine, TransientBlipDisruptsWithoutKillingInstances) {
    CrashScenario s;
    FaultEvent blip;
    blip.slot = 3;
    blip.kind = FaultKind::kTransientBlip;
    blip.cloudlet = CloudletId{0};
    s.schedule.events = {blip};
    s.schedule.cloudlet_crashes = 0;
    s.schedule.transient_blips = 1;
    const RecoveryReport r =
        run_recovery_study(s.instance, s.decisions, s.schedule, RecoveryConfig{});
    // One disrupted slot, then service resumes on its own: the instance
    // survived the blip even under kNone.
    EXPECT_EQ(r.transient_blips, 1u);
    EXPECT_EQ(r.instances_lost, 0u);
    EXPECT_EQ(r.served_slots, 9u);
    EXPECT_EQ(r.disrupted_slots, 1u);
    EXPECT_EQ(r.outages, 1u);
    EXPECT_EQ(r.recovered_outages, 1u);
    EXPECT_DOUBLE_EQ(r.mean_time_to_recover(), 1.0);
}

TEST(RecoveryEngine, InstanceCrashTargetsTheAddressedReplica) {
    // Two replicas on cloudlet 0; killing one leaves service untouched.
    const auto inst =
        small_instance({0.98, 0.97}, 10.0, 8, {make_request(0, 0, 0.95, 0, 8, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 2}})};
    FaultSchedule schedule;
    schedule.events = {instance_crash(3, 0, 0, 1)};
    schedule.instance_crashes = 1;
    const RecoveryReport r =
        run_recovery_study(inst, decisions, schedule, RecoveryConfig{});
    EXPECT_EQ(r.instance_crashes, 1u);
    EXPECT_EQ(r.instances_lost, 1u);
    EXPECT_EQ(r.served_slots, 8u);  // replica 0 keeps serving
    EXPECT_EQ(r.disrupted_slots, 0u);
    // Killing the already-dead replica again is a no-op.
    schedule.events.push_back(instance_crash(5, 0, 0, 1));
    const RecoveryReport r2 =
        run_recovery_study(inst, decisions, schedule, RecoveryConfig{});
    EXPECT_EQ(r2.instance_crashes, 1u);
    // An out-of-range site/replica address is a no-op, not a crash.
    schedule.events.push_back(instance_crash(6, 0, 7, 9));
    EXPECT_NO_THROW(run_recovery_study(inst, decisions, schedule, RecoveryConfig{}));
}

TEST(RecoveryEngine, ReplicaSwitchOnTheSameCloudletIsALocalFailover) {
    // Two replicas on cloudlet 0; the serving replica 0 dies and replica 1
    // takes over on the same cloudlet.
    const auto inst =
        small_instance({0.98, 0.97}, 10.0, 8, {make_request(0, 0, 0.95, 0, 8, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 2}})};
    FaultSchedule schedule;
    schedule.events = {instance_crash(3, 0, 0, 0)};
    schedule.instance_crashes = 1;
    const RecoveryReport r =
        run_recovery_study(inst, decisions, schedule, RecoveryConfig{});
    EXPECT_EQ(r.served_slots, 8u);
    EXPECT_EQ(r.local_failovers, 1u);
    EXPECT_EQ(r.remote_failovers, 0u);
    EXPECT_EQ(r.outages, 0u);
}

TEST(RecoveryEngine, ShedsLowestPaymentRequestToRecoverHigherPayment) {
    // Cloudlet 1 is completely full with a cheap short request; the
    // expensive request's cloudlet dies for good. Migration sheds the cheap
    // one: it loses 2 slots (of its 4-slot window) so the expensive one can
    // gain 5 — a strict win on both dominance metrics.
    const auto inst = small_instance({0.98, 0.97}, 2.0, 8,
                                     {make_request(0, 1, 0.8, 0, 4, 1.0),
                                      make_request(1, 0, 0.9, 0, 8, 10.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{1}, 1}}),   // "lb": compute 2 = full
        admit(1, {core::Site{CloudletId{0}, 1}})};  // "fw": compute 1
    FaultSchedule schedule;
    schedule.events = {cloudlet_crash(2, 0, 100)};
    schedule.cloudlet_crashes = 1;

    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(r.shed_requests, 1u);
    EXPECT_DOUBLE_EQ(r.shed_revenue, 1.0);
    EXPECT_EQ(r.remote_migrations, 1u);
    EXPECT_EQ(r.capacity_violations, 0u);
    // Request 1: slots 0-1 on cloudlet 0, slot 2 disrupted, 3-7 migrated.
    // Request 0: slots 0-1 served, then shed — its remaining 2 slots still
    // count as disrupted.
    EXPECT_EQ(r.served_slots, 2u + 7u);
    EXPECT_EQ(r.disrupted_slots, 2u + 1u);
    EXPECT_EQ(r.sla_requests, 2u);
    EXPECT_EQ(r.sla_violations, 2u);  // 0.5 < 0.8 and 0.875 < 0.9

    // With shedding disabled the migration has to wait out the victim's
    // window: backoff retries at slots 3 and 5, landing the site only once
    // cloudlet 1 frees up at slot 5.
    cfg.allow_shedding = false;
    const RecoveryReport r2 = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(r2.shed_requests, 0u);
    EXPECT_EQ(r2.remote_migrations, 1u);
    EXPECT_EQ(r2.failed_recoveries, 2u);
    // The cheap request serves its full window; the expensive one resumes
    // at slot 6 after the slot-5 migration's spin-up.
    EXPECT_EQ(r2.served_slots, 4u + 4u);
}

TEST(RecoveryEngine, ShedsASiteGainedByMigration) {
    // The cheap request only reaches cloudlet 1 by migrating there at slot
    // 1; the expensive one's cloudlet dies at slot 3 and cloudlet 1 is the
    // only survivor, full with the cheap request's new site. Shedding must
    // find that site: the cheap request loses 3 of 6 slots, the expensive
    // one gains 6 of 10.
    const auto inst = small_instance({0.97, 0.98, 0.96}, 1.0, 10,
                                     {make_request(0, 0, 0.8, 0, 6, 1.0),
                                      make_request(1, 0, 0.9, 0, 10, 10.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}}),
        admit(1, {core::Site{CloudletId{2}, 1}})};
    FaultSchedule schedule;
    schedule.events = {cloudlet_crash(1, 0, 100), cloudlet_crash(3, 2, 100)};

    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(r.remote_migrations, 2u);
    EXPECT_EQ(r.shed_requests, 1u);
    EXPECT_DOUBLE_EQ(r.shed_revenue, 1.0);
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEngine, NeverShedsEqualOrHigherPayment) {
    // Same shape, but the would-be victim pays the same: no shedding.
    const auto inst = small_instance({0.98, 0.97}, 2.0, 8,
                                     {make_request(0, 1, 0.8, 0, 8, 10.0),
                                      make_request(1, 0, 0.9, 0, 8, 10.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{1}, 1}}),
        admit(1, {core::Site{CloudletId{0}, 1}})};
    FaultSchedule schedule;
    schedule.events = {cloudlet_crash(2, 0, 100)};
    schedule.cloudlet_crashes = 1;
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(r.shed_requests, 0u);
    EXPECT_EQ(r.remote_migrations, 0u);
}

TEST(RecoveryEngine, RecoveryPoliciesDominateNoneUnderIdenticalFaults) {
    // The acceptance criterion: with identical fault schedules, every
    // recovery policy delivers at least kNone's availability, with zero
    // ledger capacity violations.
    common::Rng rng(507);
    const core::Instance inst = random_instance(rng, 60, 4, 15, 20, 40);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    FaultInjectorConfig faults;
    faults.rack_failure_per_slot = 0.01;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const FaultSchedule schedule =
            generate_fault_schedule(inst, result.decisions, faults, seed);
        RecoveryConfig cfg;
        const RecoveryReport none =
            run_recovery_study(inst, result.decisions, schedule, cfg);
        EXPECT_EQ(none.capacity_violations, 0u);
        for (const RecoveryPolicy policy :
             {RecoveryPolicy::kLocalRespawn, RecoveryPolicy::kRemoteMigrate,
              RecoveryPolicy::kReadmit}) {
            cfg.policy = policy;
            const RecoveryReport r =
                run_recovery_study(inst, result.decisions, schedule, cfg);
            EXPECT_GE(r.availability(), none.availability())
                << to_string(policy) << " seed=" << seed;
            EXPECT_GE(r.mean_delivered(), none.mean_delivered())
                << to_string(policy) << " seed=" << seed;
            EXPECT_EQ(r.capacity_violations, 0u) << to_string(policy);
            EXPECT_EQ(r.request_slots, none.request_slots);
        }
    }
}

TEST(RecoveryEngine, RejectsMismatchedDecisions) {
    const auto inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 1.0)});
    EXPECT_THROW(run_recovery_study(inst, {}, FaultSchedule{}, RecoveryConfig{}),
                 std::invalid_argument);
}

TEST(RecoveryEngine, RejectsOvercommittedSchedules) {
    // A schedule that never fit (capacity 1, compute 2) cannot be replayed
    // into the enforcing ledger.
    const auto inst = small_instance({0.99}, 1.0, 5, {make_request(0, 1, 0.8, 0, 2, 1.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}})};
    EXPECT_THROW(run_recovery_study(inst, decisions, FaultSchedule{}, RecoveryConfig{}),
                 std::invalid_argument);
}

TEST(RecoveryEngine, ValidatesRecoveryConfig) {
    const CrashScenario s;
    RecoveryConfig cfg;
    cfg.max_retries = -1;
    EXPECT_THROW(run_recovery_study(s.instance, s.decisions, s.schedule, cfg),
                 common::ContractViolation);
    cfg = RecoveryConfig{};
    cfg.retry_backoff_slots = 0;
    EXPECT_THROW(run_recovery_study(s.instance, s.decisions, s.schedule, cfg),
                 common::ContractViolation);
}

TEST(RecoveryStudy, ReplicationsAggregateAndValidate) {
    common::Rng rng(509);
    const core::Instance inst = random_instance(rng, 40, 3, 12);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    RecoveryStudyConfig cfg;
    cfg.replications = 3;
    cfg.recovery.policy = RecoveryPolicy::kLocalRespawn;
    const RecoveryStudyOutcome out =
        run_recovery_replications(inst, result.decisions, cfg);
    EXPECT_EQ(out.availability.count(), 3u);
    EXPECT_GT(out.total.request_slots, 0u);
    EXPECT_EQ(out.total.capacity_violations, 0u);
    // Same config, same outcome, same checksum.
    const RecoveryStudyOutcome again =
        run_recovery_replications(inst, result.decisions, cfg);
    EXPECT_EQ(recovery_metrics_checksum(out), recovery_metrics_checksum(again));
    // Different master seed, different faults.
    cfg.master_seed ^= 1;
    const RecoveryStudyOutcome other =
        run_recovery_replications(inst, result.decisions, cfg);
    EXPECT_NE(recovery_metrics_checksum(out), recovery_metrics_checksum(other));

    cfg.replications = 0;
    EXPECT_THROW(run_recovery_replications(inst, result.decisions, cfg),
                 common::ContractViolation);
}

TEST(RecoveryStudy, PluggableInjectorIsUsed) {
    const CrashScenario s;
    RecoveryStudyConfig cfg;
    cfg.replications = 2;
    cfg.recovery.policy = RecoveryPolicy::kLocalRespawn;
    cfg.injector = [&s](const core::Instance&, const std::vector<core::Decision>&,
                        std::uint64_t) { return s.schedule; };
    const RecoveryStudyOutcome out =
        run_recovery_replications(s.instance, s.decisions, cfg);
    EXPECT_EQ(out.total.cloudlet_crashes, 2u);  // one per replication
    EXPECT_EQ(out.total.local_respawns, 2u);
}

TEST(RecoveryStudy, ReportsPinnedOnPaperSeeds) {
    // Bit-for-bit pin of the recovery reports on the paper environment
    // (n = 800, the hybrid's decisions, rack failures on), every policy,
    // three fixed seeds. The shedding counts are pinned on their own so a
    // change to the victim choice names itself.
    struct Pin {
        std::uint64_t checksum;
        std::size_t shed;
    };
    const RecoveryPolicy policies[] = {RecoveryPolicy::kNone, RecoveryPolicy::kLocalRespawn,
                                       RecoveryPolicy::kRemoteMigrate,
                                       RecoveryPolicy::kReadmit};
    const Pin pins[3][4] = {
        {{0x7753f089f65a1c89ULL, 0},
         {0xf178d7cac44b307fULL, 0},
         {0xdac92a275c4dd158ULL, 196},
         {0x21aef5264cedf623ULL, 39}},
        {{0x936355401fa5aa02ULL, 0},
         {0x5bbba92488e3289eULL, 0},
         {0xf0815c44df9b41d5ULL, 297},
         {0x208950967d3c94f2ULL, 50}},
        {{0x84e17c0894995fb0ULL, 0},
         {0x1eec6a2fe7ef5e14ULL, 0},
         {0xb789eba59496623aULL, 148},
         {0x72a9239163348bc3ULL, 39}},
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        common::Rng rng(seed);
        const core::Instance inst = core::make_instance(paper_environment(800), rng);
        core::HybridPrimalDual scheduler(inst);
        const core::ScheduleResult result = core::run_online(inst, scheduler);
        for (std::size_t p = 0; p < 4; ++p) {
            RecoveryStudyConfig cfg;
            cfg.faults.rack_failure_per_slot = 0.005;
            cfg.recovery.policy = policies[p];
            cfg.replications = 16;
            cfg.master_seed = seed;
            const RecoveryStudyOutcome out =
                run_recovery_replications(inst, result.decisions, cfg);
            const Pin& pin = pins[seed - 1][p];
            EXPECT_EQ(recovery_metrics_checksum(out), pin.checksum)
                << "seed=" << seed << " " << to_string(policies[p]);
            EXPECT_EQ(out.total.shed_requests, pin.shed)
                << "seed=" << seed << " " << to_string(policies[p]);
        }
    }
}

}  // namespace
}  // namespace vnfr::sim
