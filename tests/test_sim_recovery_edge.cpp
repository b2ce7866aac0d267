// Edge cases of the recovery orchestrator: total outages, zero residual
// capacity, faults landing on a request's final slot, outages and delays
// too long for slot arithmetic, racks past the fleet, malformed fault
// schedules, and the timing of the replay's recovery visits: retries at
// their backoff slots, spent retry budgets, handover lapses and the
// shedding scan's victim choice.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>

#include "helpers.hpp"
#include "sim/recovery_engine.hpp"
#include "sim/recovery_faults.hpp"

namespace vnfr::sim {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

core::Decision admit(std::int64_t request, std::vector<core::Site> sites) {
    core::Decision d;
    d.admitted = true;
    d.placement = core::Placement{RequestId{request}, std::move(sites)};
    return d;
}

TEST(RecoveryEdge, AllCloudletsDownSimultaneously) {
    // A rack failure spanning the whole fleet: no policy has anywhere to
    // recover to — the engine must degrade cleanly, not crash or violate
    // capacity.
    const auto inst = small_instance({0.98, 0.97, 0.96}, 10.0, 8,
                                     {make_request(0, 0, 0.9, 0, 8, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}})};
    FaultSchedule schedule;
    FaultEvent rack;
    rack.slot = 2;
    rack.kind = FaultKind::kRackFailure;
    rack.cloudlet = CloudletId{0};
    rack.span = 3;
    rack.down_slots = 100;
    schedule.events = {rack};
    schedule.rack_failures = 1;

    for (const RecoveryPolicy policy :
         {RecoveryPolicy::kNone, RecoveryPolicy::kLocalRespawn,
          RecoveryPolicy::kRemoteMigrate, RecoveryPolicy::kReadmit}) {
        RecoveryConfig cfg;
        cfg.policy = policy;
        const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
        EXPECT_EQ(r.rack_failures, 1u) << to_string(policy);
        EXPECT_EQ(r.instances_lost, 1u) << to_string(policy);
        EXPECT_EQ(r.served_slots, 2u) << to_string(policy);  // slots 0..1 only
        EXPECT_EQ(r.disrupted_slots, 6u) << to_string(policy);
        EXPECT_EQ(r.local_respawns + r.remote_migrations + r.readmissions, 0u)
            << to_string(policy);
        EXPECT_EQ(r.capacity_violations, 0u) << to_string(policy);
        EXPECT_EQ(r.sla_violations, 1u) << to_string(policy);
    }
    // The request-level policies burned bounded retries against the outage.
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_GT(r.failed_recoveries, 0u);
    EXPECT_LE(r.failed_recoveries, static_cast<std::size_t>(cfg.max_retries));
}

TEST(RecoveryEdge, ZeroResidualCapacityBlocksRemoteMigrate) {
    // The only surviving cloudlet is completely full and shedding is off:
    // kRemoteMigrate must fail gracefully without touching the occupant.
    const auto inst = small_instance({0.98, 0.97}, 2.0, 8,
                                     {make_request(0, 1, 0.8, 0, 8, 1.0),
                                      make_request(1, 0, 0.9, 0, 8, 10.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{1}, 1}}),   // compute 2: c1 is full
        admit(1, {core::Site{CloudletId{0}, 1}})};
    FaultSchedule schedule;
    FaultEvent crash;
    crash.slot = 2;
    crash.kind = FaultKind::kCloudletCrash;
    crash.cloudlet = CloudletId{0};
    crash.down_slots = 100;
    schedule.events = {crash};
    schedule.cloudlet_crashes = 1;

    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    cfg.allow_shedding = false;
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(r.remote_migrations, 0u);
    EXPECT_EQ(r.shed_requests, 0u);
    EXPECT_GT(r.failed_recoveries, 0u);
    EXPECT_LE(r.failed_recoveries, static_cast<std::size_t>(cfg.max_retries));
    EXPECT_EQ(r.capacity_violations, 0u);
    // The occupant kept its full window; the victim of the crash lost the
    // remainder of its own.
    EXPECT_EQ(r.served_slots, 8u + 2u);
}

TEST(RecoveryEdge, FailureOnFinalSlotRecoversOnlyWithInstantRespawn) {
    // The crash lands on the request's last slot. With one slot of spin-up
    // there is nothing left to win (the respawn is booked but never
    // serves); with instant respawn the final slot itself is saved.
    const auto inst =
        small_instance({0.98, 0.97}, 10.0, 6, {make_request(0, 0, 0.9, 0, 5, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}})};
    FaultSchedule schedule;
    FaultEvent crash;
    crash.slot = 4;  // request window is [0, 5): slot 4 is the last one
    crash.kind = FaultKind::kInstanceCrash;
    crash.request_index = 0;
    crash.site = 0;
    crash.replica = 0;
    schedule.events = {crash};
    schedule.instance_crashes = 1;

    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kLocalRespawn;
    const RecoveryReport delayed = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(delayed.served_slots, 4u);
    EXPECT_EQ(delayed.disrupted_slots, 1u);
    EXPECT_EQ(delayed.local_respawns, 1u);  // booked, but spins up past the end
    EXPECT_EQ(delayed.recovered_outages, 0u);
    EXPECT_EQ(delayed.capacity_violations, 0u);

    cfg.respawn_delay_slots = 0;
    const RecoveryReport instant = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(instant.served_slots, 5u);
    EXPECT_EQ(instant.disrupted_slots, 0u);
    EXPECT_EQ(instant.sla_violations, 0u);

    cfg = RecoveryConfig{};
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    cfg.respawn_delay_slots = 0;
    const RecoveryReport migrated = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(migrated.served_slots, 5u);
    EXPECT_EQ(migrated.capacity_violations, 0u);
}

TEST(RecoveryEdge, FaultsAfterTheWindowAreNoOps) {
    const auto inst =
        small_instance({0.98}, 10.0, 8, {make_request(0, 0, 0.9, 0, 4, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}})};
    FaultSchedule schedule;
    FaultEvent crash;
    crash.slot = 6;  // request ended at slot 4
    crash.kind = FaultKind::kCloudletCrash;
    crash.cloudlet = CloudletId{0};
    crash.down_slots = 2;
    schedule.events = {crash};
    schedule.cloudlet_crashes = 1;
    FaultEvent dangling;
    dangling.slot = 6;
    dangling.kind = FaultKind::kInstanceCrash;
    dangling.request_index = 0;
    schedule.events.push_back(dangling);
    schedule.instance_crashes = 1;

    const RecoveryReport r =
        run_recovery_study(inst, decisions, schedule, RecoveryConfig{});
    EXPECT_EQ(r.served_slots, 4u);
    EXPECT_EQ(r.disrupted_slots, 0u);
    EXPECT_EQ(r.instances_lost, 0u);
    EXPECT_EQ(r.instance_crashes, 0u);  // landed outside the window: not applied
    EXPECT_EQ(r.sla_violations, 0u);
}

TEST(RecoveryEdge, OutagesAndDelaysPastTheSlotRangeLastTheRun) {
    // Down times, spin-up delays and backoffs of INT_MAX slots: each sum
    // with the current slot is past the horizon, so it means "for the rest
    // of the run" — it must neither overflow nor wrap into the past.
    constexpr TimeSlot kForever = std::numeric_limits<TimeSlot>::max();
    const auto inst = small_instance({0.98, 0.97, 0.96}, 1.0, 8,
                                     {make_request(0, 0, 0.9, 0, 8, 5.0),
                                      make_request(1, 0, 0.9, 0, 8, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}}),
        admit(1, {core::Site{CloudletId{2}, 1}})};
    const auto event = [](TimeSlot slot, FaultKind kind) {
        FaultEvent e;
        e.slot = slot;
        e.kind = kind;
        e.down_slots = kForever;
        return e;
    };
    FaultSchedule schedule;
    FaultEvent blip = event(2, FaultKind::kTransientBlip);
    blip.cloudlet = CloudletId{1};
    FaultEvent outage = event(2, FaultKind::kInstanceOutage);  // request 0's replica
    FaultEvent crash = event(3, FaultKind::kCloudletCrash);
    crash.cloudlet = CloudletId{0};
    FaultEvent lost = event(4, FaultKind::kInstanceCrash);
    lost.request_index = 1;
    schedule.events = {blip, outage, crash, lost};

    struct Expect {
        RecoveryPolicy policy;
        std::size_t recoveries;  ///< respawns + migrations + readmissions
        std::size_t failed;
    };
    // Request 0 has nowhere to go at slot 3 (cloudlet 1 is unreachable for
    // good and cloudlet 2 is full at an equal payment), fails once, and its
    // backoff outlasts the run. Request 1 recovers at slot 4 on its freed
    // cloudlet, but the replacement spins up past the horizon.
    for (const Expect& x : {Expect{RecoveryPolicy::kNone, 0, 0},
                            Expect{RecoveryPolicy::kLocalRespawn, 1, 0},
                            Expect{RecoveryPolicy::kRemoteMigrate, 1, 1},
                            Expect{RecoveryPolicy::kReadmit, 1, 1}}) {
        RecoveryConfig cfg;
        cfg.policy = x.policy;
        cfg.respawn_delay_slots = kForever;
        cfg.retry_backoff_slots = kForever;
        const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
        const char* name = to_string(x.policy);
        EXPECT_EQ(r.served_slots, 2u + 4u) << name;  // slots 0-1 and 0-3
        EXPECT_EQ(r.disrupted_slots, 6u + 4u) << name;
        EXPECT_EQ(r.instances_lost, 2u) << name;
        EXPECT_EQ(r.local_respawns + r.remote_migrations + r.readmissions, x.recoveries)
            << name;
        EXPECT_EQ(r.failed_recoveries, x.failed) << name;
        EXPECT_EQ(r.shed_requests, 0u) << name;
        EXPECT_EQ(r.capacity_violations, 0u) << name;
    }
}

TEST(RecoveryEdge, LongRepairTimesSaturateInsteadOfWrapping) {
    // Repair draws far past 2^31 slots must read as outages that last the
    // run, not wrap through the 32-bit TimeSlot into short ones.
    const auto inst = small_instance({0.98, 0.97, 0.96}, 10.0, 24,
                                     {make_request(0, 0, 0.9, 0, 24, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}})};
    FaultInjectorConfig cfg;
    cfg.cloudlet_crash_per_slot = 0.5;
    cfg.rack_failure_per_slot = 0.5;
    cfg.cloudlet_mttr_slots = 1e12;
    const FaultSchedule schedule = generate_fault_schedule(inst, decisions, cfg, 7);
    ASSERT_GT(schedule.cloudlet_crashes + schedule.rack_failures, 10u);
    for (const FaultEvent& e : schedule.events) {
        if (e.kind == FaultKind::kCloudletCrash || e.kind == FaultKind::kRackFailure) {
            EXPECT_GE(e.down_slots, inst.horizon) << "crash at slot " << e.slot;
        }
    }
}

TEST(RecoveryEdge, RackPastTheFleetCrashesTheCloudletsThatExist) {
    // A rack of 2^36 ids starting at cloudlet 1 of 3 takes down cloudlets 1
    // and 2 only, and the replay does not walk the ids that do not exist.
    const auto inst = small_instance({0.98, 0.97, 0.96}, 10.0, 8,
                                     {make_request(0, 0, 0.9, 0, 8, 5.0),
                                      make_request(1, 0, 0.9, 0, 8, 5.0),
                                      make_request(2, 0, 0.9, 0, 8, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}}),
        admit(1, {core::Site{CloudletId{1}, 1}}),
        admit(2, {core::Site{CloudletId{2}, 1}})};
    FaultSchedule schedule;
    FaultEvent rack;
    rack.slot = 2;
    rack.kind = FaultKind::kRackFailure;
    rack.cloudlet = CloudletId{1};
    rack.span = std::size_t{1} << 36;
    rack.down_slots = 100;
    schedule.events = {rack};

    const auto start = std::chrono::steady_clock::now();
    const RecoveryReport r =
        run_recovery_study(inst, decisions, schedule, RecoveryConfig{});
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed.count(), 0.5);
    EXPECT_EQ(r.rack_failures, 1u);
    EXPECT_EQ(r.instances_lost, 2u);
    EXPECT_EQ(r.served_slots, 8u + 2u + 2u);  // cloudlet 0's request keeps serving
    EXPECT_EQ(r.disrupted_slots, 6u + 6u);
}

FaultEvent crash_at(TimeSlot slot, std::int64_t cloudlet) {
    FaultEvent e;
    e.slot = slot;
    e.kind = FaultKind::kCloudletCrash;
    e.cloudlet = CloudletId{cloudlet};
    e.down_slots = 100;
    return e;
}

FaultEvent replica_event(TimeSlot slot, FaultKind kind, std::size_t request, std::size_t site,
                         std::size_t replica) {
    FaultEvent e;
    e.slot = slot;
    e.kind = kind;
    e.request_index = request;
    e.site = site;
    e.replica = replica;
    return e;
}

/// Request 0 loses cloudlet 0 for good at slot 1; cloudlet 1 is held by
/// request 1, which pays more (so it is never shed) and leaves after slot
/// 2. Cloudlets have room for one replica.
struct BlockedMigration {
    core::Instance instance = small_instance({0.98, 0.97}, 1.0, 12,
                                             {make_request(0, 0, 0.9, 0, 12, 10.0),
                                              make_request(1, 0, 0.9, 0, 3, 20.0)});
    std::vector<core::Decision> decisions = {admit(0, {core::Site{CloudletId{0}, 1}}),
                                             admit(1, {core::Site{CloudletId{1}, 1}})};
    FaultSchedule schedule;

    BlockedMigration() { schedule.events = {crash_at(1, 0)}; }
};

TEST(RecoveryEdge, FailedMigrationRetriesExactlyAtItsBackoffSlots) {
    // Attempts fail at slots 1 and 2 (backoff 1, then 2 slots). Cloudlet 1
    // frees up at slot 3, but no event lands and the next attempt is due
    // at slot 4, which succeeds and serves at once (no spin-up).
    const BlockedMigration s;
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    cfg.respawn_delay_slots = 0;
    const RecoveryReport r = run_recovery_study(s.instance, s.decisions, s.schedule, cfg);
    EXPECT_EQ(r.failed_recoveries, 2u);
    EXPECT_EQ(r.remote_migrations, 1u);
    EXPECT_EQ(r.shed_requests, 0u);
    EXPECT_EQ(r.served_slots, (1u + 8u) + 3u);  // request 0: slot 0, then 4-11
    EXPECT_EQ(r.disrupted_slots, 3u);           // slots 1-3
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEdge, SpentRetryBudgetIsNeverRetriedEvenOnceCapacityFrees) {
    const BlockedMigration s;
    for (const RecoveryPolicy policy :
         {RecoveryPolicy::kRemoteMigrate, RecoveryPolicy::kReadmit}) {
        RecoveryConfig cfg;
        cfg.policy = policy;
        cfg.respawn_delay_slots = 0;
        cfg.max_retries = 2;
        const RecoveryReport r = run_recovery_study(s.instance, s.decisions, s.schedule, cfg);
        const char* name = to_string(policy);
        EXPECT_EQ(r.failed_recoveries, 2u) << name;  // slots 1 and 2, then never
        EXPECT_EQ(r.remote_migrations + r.readmissions, 0u) << name;
        EXPECT_EQ(r.served_slots, 1u + 3u) << name;
        EXPECT_EQ(r.disrupted_slots, 11u) << name;
    }
}

/// One request (R = 0.97) on two replicas of cloudlet 0 under kReadmit with
/// a 3-slot spin-up. Losing a replica at slot 2 (0.931 < R) re-admits it
/// onto two fresh replicas of cloudlet 0 (site 1), ready at slot 5; the
/// surviving old replica serves until then.
struct Handover {
    core::Instance instance = small_instance({0.98, 0.97, 0.96}, 10.0, 12,
                                             {make_request(0, 0, 0.97, 0, 12, 5.0)});
    std::vector<core::Decision> decisions = {admit(0, {core::Site{CloudletId{0}, 2}})};
    RecoveryConfig config;

    Handover() {
        config.policy = RecoveryPolicy::kReadmit;
        config.respawn_delay_slots = 3;
    }
};

TEST(RecoveryEdge, ReadmittedOldReplicasStopServingExactlyAtTheReadySlot) {
    // Both new replicas are unreachable in slot 5 only: the slot is lost
    // exactly when the old replica hands over at the ready slot, not a
    // slot earlier or later.
    const Handover h;
    FaultSchedule schedule;
    schedule.events = {replica_event(2, FaultKind::kInstanceCrash, 0, 0, 0),
                       replica_event(5, FaultKind::kInstanceOutage, 0, 1, 0),
                       replica_event(5, FaultKind::kInstanceOutage, 0, 1, 1)};
    const RecoveryReport r = run_recovery_study(h.instance, h.decisions, schedule, h.config);
    EXPECT_EQ(r.readmissions, 1u);
    EXPECT_EQ(r.served_slots, 11u);  // slots 0-4 and 6-11
    EXPECT_EQ(r.disrupted_slots, 1u);
    EXPECT_EQ(r.outages, 1u);
    EXPECT_EQ(r.recovered_outages, 1u);
    EXPECT_EQ(r.local_failovers, 1u);  // replica 1 at slot 2; slot 6 is a recovery
}

TEST(RecoveryEdge, DeficitLeftByAHandoverLapseIsRecoveredAtTheLapse) {
    // A new replica dies at slot 3 while the old one still serves: together
    // they still meet R, so nothing is due. The old replica's lapse at slot
    // 5 leaves one replica (0.931 < R), and the request is re-admitted
    // again in that very slot, with no fault event landing there.
    const Handover h;
    FaultSchedule schedule;
    schedule.events = {replica_event(2, FaultKind::kInstanceCrash, 0, 0, 0),
                       replica_event(3, FaultKind::kInstanceCrash, 0, 1, 0)};
    const RecoveryReport r = run_recovery_study(h.instance, h.decisions, schedule, h.config);
    EXPECT_EQ(r.instances_lost, 2u);
    EXPECT_EQ(r.readmissions, 2u);
    EXPECT_EQ(r.failed_recoveries, 0u);
    EXPECT_EQ(r.served_slots, 12u);
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEdge, ShedHolderIsNeverAVictimAgain) {
    // Cloudlet 0 fails at slot 2 under both beneficiaries (indices 2 and
    // 3). The first sheds the cheapest holder of cloudlet 1 (index 0, its
    // window nearly spent) and moves there; the second finds cloudlet 1
    // full again, and the shed holder is not shed, nor its payment booked,
    // a second time. The other holder costs more slots than it would free.
    const auto inst = small_instance({0.98, 0.97}, 2.0, 12,
                                     {make_request(0, 0, 0.9, 0, 6, 1.0),
                                      make_request(1, 0, 0.9, 0, 12, 2.0),
                                      make_request(2, 0, 0.9, 0, 12, 10.0),
                                      make_request(3, 0, 0.9, 0, 12, 10.0)});
    const std::vector<core::Decision> decisions = {admit(0, {core::Site{CloudletId{1}, 1}}),
                                                   admit(1, {core::Site{CloudletId{1}, 1}}),
                                                   admit(2, {core::Site{CloudletId{0}, 1}}),
                                                   admit(3, {core::Site{CloudletId{0}, 1}})};
    FaultSchedule schedule;
    schedule.events = {crash_at(2, 0)};
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(r.shed_requests, 1u);
    EXPECT_EQ(r.shed_revenue, 1.0);
    EXPECT_EQ(r.remote_migrations, 1u);
    EXPECT_EQ(r.failed_recoveries, static_cast<std::size_t>(cfg.max_retries));
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEdge, CheaperHolderThatHasNotArrivedIsNoVictim) {
    // Request 1 needs cloudlet 1 for slots 2-11. The cheapest holder there
    // (index 2) arrives at slot 6 and holds slots 6-11, so the space it
    // would free is not on offer; the holder that has arrived frees only
    // slots 2-3. Nothing is shed, and every attempt counts as failed.
    const auto inst = small_instance({0.98, 0.97}, 1.0, 12,
                                     {make_request(0, 0, 0.9, 0, 4, 1.0),
                                      make_request(1, 0, 0.9, 0, 12, 10.0),
                                      make_request(2, 0, 0.9, 6, 6, 0.5)});
    const std::vector<core::Decision> decisions = {admit(0, {core::Site{CloudletId{1}, 1}}),
                                                   admit(1, {core::Site{CloudletId{0}, 1}}),
                                                   admit(2, {core::Site{CloudletId{1}, 1}})};
    FaultSchedule schedule;
    schedule.events = {crash_at(2, 0)};
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(r.shed_requests, 0u);
    EXPECT_EQ(r.remote_migrations, 0u);
    EXPECT_EQ(r.failed_recoveries, static_cast<std::size_t>(cfg.max_retries));
    EXPECT_EQ(r.served_slots, 4u + 2u + 6u);
}

TEST(RecoveryEdge, NothingIsShedWhenAllCheaperHoldersCannotFreeEnough) {
    // Request 2 (2 compute units) needs cloudlet 1, where a cheaper holder
    // frees one unit and a dearer one keeps the other: even shedding every
    // cheaper holder leaves too little, so none is shed and each attempt
    // (slots 2, 3, 5 and 9) counts as a failed recovery.
    const auto inst = small_instance({0.98, 0.97}, 2.0, 12,
                                     {make_request(0, 0, 0.9, 0, 6, 1.0),
                                      make_request(1, 0, 0.9, 0, 12, 20.0),
                                      make_request(2, 1, 0.85, 0, 12, 10.0)});
    const std::vector<core::Decision> decisions = {admit(0, {core::Site{CloudletId{1}, 1}}),
                                                   admit(1, {core::Site{CloudletId{1}, 1}}),
                                                   admit(2, {core::Site{CloudletId{0}, 1}})};
    FaultSchedule schedule;
    schedule.events = {crash_at(2, 0)};
    RecoveryConfig cfg;
    cfg.policy = RecoveryPolicy::kRemoteMigrate;
    const RecoveryReport r = run_recovery_study(inst, decisions, schedule, cfg);
    EXPECT_EQ(r.shed_requests, 0u);
    EXPECT_EQ(r.shed_revenue, 0.0);
    EXPECT_EQ(r.remote_migrations, 0u);
    EXPECT_EQ(r.failed_recoveries, 4u);
    EXPECT_EQ(r.served_slots, 6u + 12u + 2u);
    EXPECT_EQ(r.capacity_violations, 0u);
}

TEST(RecoveryEdge, MalformedSchedulesAreRejectedUpFront) {
    // Every malformed event is rejected before the replay starts, by a
    // std::invalid_argument naming the event index and the field; none of
    // them is mistaken for an overcommitted (not replayable) schedule.
    const auto inst = small_instance({0.98, 0.97}, 10.0, 8,
                                     {make_request(0, 0, 0.9, 0, 8, 5.0)});
    const std::vector<core::Decision> decisions = {
        admit(0, {core::Site{CloudletId{0}, 1}})};
    const auto event = [](TimeSlot slot, FaultKind kind) {
        FaultEvent e;
        e.slot = slot;
        e.kind = kind;
        e.cloudlet = CloudletId{0};
        return e;
    };
    struct Case {
        const char* name;
        FaultEvent bad;
        const char* field;
    };
    std::vector<Case> cases;
    FaultEvent e = event(1, FaultKind::kTransientBlip);
    cases.push_back({"slot before the previous event", e, "slot"});
    e = event(-1, FaultKind::kCloudletCrash);
    cases.push_back({"negative slot", e, "slot"});
    e = event(8, FaultKind::kCloudletCrash);
    cases.push_back({"slot at the horizon", e, "slot"});
    e = event(3, FaultKind::kCloudletCrash);
    e.cloudlet = CloudletId{};
    cases.push_back({"invalid cloudlet id", e, "cloudlet"});
    e = event(3, FaultKind::kTransientBlip);
    e.cloudlet = CloudletId{2};
    cases.push_back({"blip past the fleet", e, "cloudlet"});
    e = event(3, FaultKind::kRackFailure);
    e.cloudlet = CloudletId{5};
    cases.push_back({"rack past the fleet", e, "cloudlet"});
    e = event(3, FaultKind::kInstanceCrash);
    e.request_index = 1;
    cases.push_back({"crash of an unknown request", e, "request_index"});
    e = event(3, FaultKind::kInstanceOutage);
    e.request_index = 9;
    cases.push_back({"outage of an unknown request", e, "request_index"});
    e = event(3, FaultKind::kTransientBlip);
    e.down_slots = 0;
    cases.push_back({"zero-length blip", e, "down_slots"});
    e = event(3, FaultKind::kRackFailure);
    e.span = 0;
    cases.push_back({"empty rack", e, "span"});

    for (const Case& c : cases) {
        // A valid event first, so the bad one sits at index 1.
        FaultSchedule schedule;
        schedule.events = {event(2, FaultKind::kTransientBlip), c.bad};
        try {
            run_recovery_study(inst, decisions, schedule, RecoveryConfig{});
            ADD_FAILURE() << c.name << ": accepted";
        } catch (const ScheduleNotReplayable&) {
            ADD_FAILURE() << c.name << ": reported as not replayable";
        } catch (const std::invalid_argument& err) {
            const std::string what = err.what();
            EXPECT_NE(what.find("event 1 "), std::string::npos) << c.name << ": " << what;
            EXPECT_NE(what.find(c.field), std::string::npos) << c.name << ": " << what;
        }
    }

    // The overcommitted schedule is the one typed as not replayable.
    const auto tight =
        small_instance({0.99}, 1.0, 5, {make_request(0, 1, 0.8, 0, 2, 1.0)});
    EXPECT_THROW(run_recovery_study(tight, decisions, FaultSchedule{}, RecoveryConfig{}),
                 ScheduleNotReplayable);
}

}  // namespace
}  // namespace vnfr::sim
