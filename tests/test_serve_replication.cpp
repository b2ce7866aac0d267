// Primary/standby replication: ship-frame wire format, transport fault
// injection, WAL shipping across rotation, standby tailing and resync,
// promotion from the primary's disk tail, and the failover chaos gate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/faults/chaos_support.hpp"
#include "serve/replication/failover.hpp"
#include "serve/faults/failover_chaos.hpp"
#include "serve/faults/faulty_ship_transport.hpp"
#include "serve/replication/ship_transport.hpp"
#include "serve/replication/standby.hpp"
#include "serve/replication/wal_shipper.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve::replication {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

core::Instance replication_instance(std::size_t n) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const TimeSlot arrival = static_cast<TimeSlot>((i * 7) / n);
        const TimeSlot duration = 1 + static_cast<TimeSlot>(i % 3);
        const double payment = 1.0 + static_cast<double>((i * 11) % 17);
        reqs.push_back(make_request(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(i % 2),
                                    0.90 + 0.004 * static_cast<double>(i % 10),
                                    arrival, duration, payment));
    }
    // Tight capacity so admission, rejection and shedding all occur.
    return small_instance({0.98, 0.97, 0.99}, 10.0, 10, std::move(reqs));
}

std::string fresh_work_dir(const std::string& name) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

ServeConfig primary_config(const std::string& dir) {
    ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.retain_wals = true;
    return cfg;
}

ServeConfig standby_config(const std::string& dir) {
    ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    return cfg;
}

/// Drives requests [0, n) with a drain every `drain_every` submits and a
/// replication beat after every step when `shipper`/`standby` are given.
void drive_replicated(AdmissionController& primary,
                      const std::vector<workload::Request>& requests,
                      std::size_t drain_every, WalShipper* shipper,
                      StandbyController* standby) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
        primary.submit(i, requests[i]);
        if ((i + 1) % drain_every == 0) primary.drain();
        if (shipper != nullptr) shipper->pump();
        if (standby != nullptr) standby->poll();
    }
    primary.drain();
    if (shipper != nullptr) shipper->pump();
    if (standby != nullptr) standby->poll();
}

void settle(WalShipper& shipper, StandbyController& standby,
            ShipTransport& transport, int rounds = 10000) {
    for (int i = 0; i < rounds; ++i) {
        const std::size_t sent = shipper.pump();
        const std::size_t got = standby.poll();
        if (sent == 0 && got == 0 && transport.in_flight() == 0) return;
    }
    FAIL() << "replication link failed to settle";
}

TEST(ShipFrame, RoundTripsRecordsAndRotate) {
    ShipFrame frame;
    frame.kind = ShipFrameKind::kRecords;
    frame.generation = 7;
    frame.start_offset = 1234;
    frame.record_count = 3;
    frame.payload = "framed-record-bytes";
    const ShipFrame back = decode_ship_frame(encode_ship_frame(frame));
    EXPECT_EQ(back.kind, ShipFrameKind::kRecords);
    EXPECT_EQ(back.generation, 7u);
    EXPECT_EQ(back.start_offset, 1234u);
    EXPECT_EQ(back.record_count, 3u);
    EXPECT_EQ(back.payload, "framed-record-bytes");

    ShipFrame rotate;
    rotate.kind = ShipFrameKind::kRotate;
    rotate.generation = 2;
    rotate.start_offset = 4096;
    const ShipFrame rback = decode_ship_frame(encode_ship_frame(rotate));
    EXPECT_EQ(rback.kind, ShipFrameKind::kRotate);
    EXPECT_EQ(rback.start_offset, 4096u);
}

TEST(ShipFrame, DetectsMangling) {
    ShipFrame frame;
    frame.payload = "payload-bytes";
    std::string bytes = encode_ship_frame(frame);
    // Flip a payload byte: the frame CRC must catch it.
    std::string flipped = bytes;
    flipped[10] = static_cast<char>(flipped[10] ^ 0x40);
    EXPECT_THROW((void)decode_ship_frame(flipped), CorruptStateError);
    // Truncate the tail: short buffer, CRC gone.
    EXPECT_THROW((void)decode_ship_frame(std::string_view(bytes).substr(
                     0, bytes.size() - 5)),
                 CorruptStateError);
    EXPECT_THROW((void)decode_ship_frame(std::string_view("ab")),
                 CorruptStateError);
}

TEST(ShipTransport, BoundedChannelBackpressures) {
    ShipTransport transport(2);
    ShipFrame frame;
    frame.payload = "x";
    EXPECT_TRUE(transport.try_send(frame));
    EXPECT_TRUE(transport.try_send(frame));
    EXPECT_FALSE(transport.try_send(frame));  // full
    EXPECT_EQ(transport.stats().sends_rejected_full, 1u);
    EXPECT_TRUE(transport.try_recv().has_value());
    EXPECT_TRUE(transport.try_send(frame));  // slot freed
}

TEST(ShipTransport, FaultPlanDropsAndReorders) {
    TransportFaultPlan plan;
    plan.seed = 42;
    plan.drop = 0.25;
    plan.truncate = 0.25;
    plan.duplicate = 0.25;
    plan.reorder = 0.25;
    FaultyShipTransport transport(64, plan);
    ShipFrame frame;
    frame.payload = "some-frame-payload";
    for (int i = 0; i < 40; ++i) (void)transport.try_send(frame);
    // Drain everything (including a possible held-back reorder frame).
    std::size_t received = 0;
    while (transport.try_recv().has_value()) ++received;
    const TransportFaultStats faults = transport.fault_stats();
    EXPECT_GT(faults.frames_dropped, 0u);
    EXPECT_GT(faults.frames_truncated, 0u);
    EXPECT_GT(faults.frames_duplicated, 0u);
    EXPECT_GT(faults.frames_reordered, 0u);
    EXPECT_EQ(received, transport.stats().frames_delivered);
    EXPECT_EQ(transport.in_flight(), 0u);
}

TEST(StandbyReplication, MirrorsPrimaryDigestOverCleanLink) {
    const core::Instance instance = replication_instance(60);
    const std::string pdir = fresh_work_dir("repl_clean_p");
    const std::string sdir = fresh_work_dir("repl_clean_s");
    ShipTransport transport(4);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    drive_replicated(primary, instance.requests, 5, &shipper, &standby);
    settle(shipper, standby, transport);

    // Every durable record crossed: the standby's state is bit-identical.
    EXPECT_EQ(standby.controller().state_digest(), primary.state_digest());
    const WalPosition pos = primary.wal_position();
    const ShipAck mark = standby.watermark();
    EXPECT_EQ(mark.generation, pos.generation);
    EXPECT_EQ(mark.next_offset, pos.durable_bytes);
    EXPECT_FALSE(mark.resync);
    EXPECT_GT(standby.stats().rotates_applied, 0u);  // rotation was crossed
    EXPECT_GT(shipper.stats().generations_released, 0u);  // retention bounded
    // Released generations are really gone from the primary's directory.
    EXPECT_FALSE(posix_vfs().file_exists(pdir + "/wal-0.log"));
}

TEST(StandbyReplication, ConvergesOverFaultyLink) {
    const core::Instance instance = replication_instance(60);
    const std::string pdir = fresh_work_dir("repl_faulty_p");
    const std::string sdir = fresh_work_dir("repl_faulty_s");
    TransportFaultPlan plan;
    plan.seed = 7;
    plan.drop = 0.15;
    plan.truncate = 0.1;
    plan.duplicate = 0.1;
    plan.reorder = 0.1;
    FaultyShipTransport transport(4, plan);
    AdmissionController primary(instance, core::Scheme::kOffsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOffsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    drive_replicated(primary, instance.requests, 5, &shipper, &standby);
    settle(shipper, standby, transport);

    EXPECT_EQ(standby.controller().state_digest(), primary.state_digest());
    const StandbyStats stats = standby.stats();
    // The adversarial paths actually ran, and every lost frame was healed
    // by a resync retransmit, not silently skipped.
    EXPECT_GT(stats.frames_corrupt + stats.frames_gap + stats.frames_stale, 0u);
    EXPECT_GT(shipper.stats().resync_rewinds, 0u);
    EXPECT_FALSE(standby.watermark().resync);
}

TEST(StandbyReplication, RoleEnforcement) {
    const core::Instance instance = replication_instance(4);
    const std::string pdir = fresh_work_dir("repl_role_p");
    const std::string sdir = fresh_work_dir("repl_role_s");
    ShipTransport transport(4);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    EXPECT_EQ(standby.controller().role(), ControllerRole::kStandby);
    EXPECT_THROW(standby.controller().submit(0, instance.requests[0]),
                 std::logic_error);
    EXPECT_THROW((void)standby.controller().drain(), std::logic_error);
    WalRecord rec;
    rec.kind = WalRecordKind::kShed;
    rec.seq = 0;
    rec.request = instance.requests[0];
    EXPECT_THROW((void)primary.apply_replicated(rec), std::logic_error);

    // Applying the same record twice: the covered set absorbs the second.
    EXPECT_TRUE(standby.controller().apply_replicated(rec));
    EXPECT_FALSE(standby.controller().apply_replicated(rec));

    standby.controller().checkpoint();
    standby.controller().mark_promoted();
    EXPECT_EQ(standby.controller().role(), ControllerRole::kPrimary);
    EXPECT_NO_THROW(standby.controller().submit(1, instance.requests[1]));
}

TEST(StandbyReplication, ReleasedGenerationIsTypedGapNotSilentSkip) {
    const core::Instance instance = replication_instance(40);
    const std::string pdir = fresh_work_dir("repl_gap_p");
    const std::string sdir = fresh_work_dir("repl_gap_s");
    ShipTransport transport(8);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    // Rotate at least once before the shipper ever runs...
    drive_replicated(primary, instance.requests, 5, nullptr, nullptr);
    ASSERT_GT(primary.wal_position().generation, 0u);
    ASSERT_TRUE(posix_vfs().file_exists(pdir + "/wal-0.log"));
    // ...then lose a retained generation the tailer still needs.
    ::unlink((pdir + "/wal-0.log").c_str());
    EXPECT_THROW((void)shipper.pump(), ReplicationGapError);

    // Promotion over the same hole must fail loudly too.
    FailoverCoordinator coordinator(pdir, posix_vfs());
    EXPECT_THROW((void)coordinator.promote(standby), ReplicationGapError);
}

TEST(StandbyReplication, PromotionClosesStandbyLagFromDisk) {
    const core::Instance instance = replication_instance(60);
    const std::string pdir = fresh_work_dir("repl_lag_p");
    const std::string sdir = fresh_work_dir("repl_lag_s");
    // Baseline: uninterrupted single-node run.
    const std::string bdir = fresh_work_dir("repl_lag_b");
    std::uint64_t baseline_digest = 0;
    {
        AdmissionController baseline(instance, core::Scheme::kOnsite,
                                     standby_config(bdir));
        for (std::size_t i = 0; i < instance.requests.size(); ++i) {
            baseline.submit(i, instance.requests[i]);
            if ((i + 1) % 5 == 0) baseline.drain();
        }
        baseline.drain();
        baseline_digest = baseline.state_digest();
    }
    ShipTransport transport(4);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    // Ship only the first half of the trace, then stop replicating: the
    // standby lags by everything the shipper never sent.
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        primary.submit(i, instance.requests[i]);
        if ((i + 1) % 5 == 0) primary.drain();
        if (i < instance.requests.size() / 2) {
            shipper.pump();
            standby.poll();
        }
    }
    primary.drain();
    const std::uint64_t applied_before = standby.stats().records_applied;
    const std::uint64_t primary_digest = primary.state_digest();

    // "Kill" the primary (stop using it) and promote from its disk tail.
    FailoverCoordinator coordinator(pdir, posix_vfs());
    const PromotionReport report = coordinator.promote(standby);
    EXPECT_GT(report.disk_records_applied, 0u);  // lag really was closed
    EXPECT_EQ(applied_before + report.disk_records_applied,
              standby.controller().metrics().processed +
                  standby.controller().metrics().shed);
    EXPECT_EQ(report.promoted_digest, primary_digest);
    EXPECT_EQ(report.promoted_digest, baseline_digest);
    EXPECT_EQ(standby.controller().role(), ControllerRole::kPrimary);
}

TEST(RecoveryStats, SurfacesTornTailBytes) {
    const core::Instance instance = replication_instance(30);
    const std::string dir = fresh_work_dir("repl_torn");
    ServeConfig cfg = standby_config(dir);
    cfg.checkpoint_every = 100;  // keep everything in one generation
    {
        AdmissionController controller(instance, core::Scheme::kOnsite, cfg);
        for (std::size_t i = 0; i < 12; ++i) {
            controller.submit(i, instance.requests[i]);
        }
        controller.drain();
    }
    // Tear a few bytes off the WAL tail, as a mid-append crash would.
    const std::string wal = dir + "/wal-0.log";
    ASSERT_TRUE(posix_vfs().file_exists(wal));
    const std::uint64_t size = std::filesystem::file_size(wal);
    ASSERT_EQ(::truncate(wal.c_str(), static_cast<off_t>(size - 5)), 0);

    AdmissionController revived(instance, core::Scheme::kOnsite, cfg);
    const RecoveryStats stats = revived.recovery_stats();
    EXPECT_TRUE(stats.recovered_wal);
    // The cut landed inside the last record: recovery reports the whole
    // fragment (record bytes minus the 5 we removed) as discarded.
    EXPECT_GT(stats.torn_tail_bytes, 0u);
    EXPECT_EQ(stats.torn_tail_records, 1u);
    EXPECT_GT(stats.wal_records_replayed, 0u);
}

TEST(CheckpointCrash, BothRotationStagesAreRecoverable) {
    // Cut a short run at every mutating op, under both crash kinds, and
    // revive the cuts that landed inside a checkpoint rotation: stage 0
    // (appending the admitted ledger), stage 1 (creating the next WAL
    // generation, before the snapshot names it) and stage 2 (publishing
    // the snapshot, before the old generation retires). Each must finish
    // the trace at the uncut digest.
    const core::Instance instance = replication_instance(40);
    const std::vector<workload::Request>& requests = instance.requests;
    constexpr std::size_t kDrainEvery = 5;
    constexpr std::size_t kBatch = 1;  // one WAL commit per decision
    ServeConfig cfg = standby_config("/disk");
    cfg.retain_wals = true;
    std::uint64_t baseline_digest = 0;
    std::uint64_t ops = 0;
    {
        FaultyVfs disk;
        ServeConfig bcfg = cfg;
        bcfg.vfs = &disk;
        AdmissionController baseline(instance, core::Scheme::kOnsite, bcfg);
        chaos::DriveProgress progress;
        chaos::drive(baseline, requests, 0, false, kDrainEvery, kBatch, progress);
        baseline_digest = baseline.state_digest();
        ops = disk.op_count();
    }
    for (const CutKind kind : {CutKind::kProcessCrash, CutKind::kPowerCutTornTail}) {
        std::size_t wal_creates = 0;
        std::size_t snapshot_ops = 0;
        std::size_t ledger_ops = 0;
        for (std::uint64_t op = 1; op <= ops; ++op) {
            DiskFaultPlan plan;
            plan.cut_at_op = op;
            plan.cut_kind = kind;
            FaultyVfs disk(plan);
            ServeConfig vcfg = cfg;
            vcfg.vfs = &disk;
            chaos::DriveProgress progress;
            std::string path;
            try {
                AdmissionController victim(instance, core::Scheme::kOnsite, vcfg);
                chaos::drive(victim, requests, 0, false, kDrainEvery, kBatch, progress);
            } catch (const CrashInjected& crash) {
                path = crash.path();
            }
            // Rotations only: the constructor creates the first WAL
            // generation before any request is submitted.
            if (progress.submitted == 0 || !chaos::cut_in_rotation(path)) continue;
            if (path.find("snapshot.bin") != std::string::npos) {
                ++snapshot_ops;
            } else if (path.find("snapshot.ledger") != std::string::npos) {
                ++ledger_ops;
            } else {
                ++wal_creates;
            }
            AdmissionController revived(instance, core::Scheme::kOnsite, vcfg);
            chaos::rebuild_queue(revived, requests, progress.submitted);
            chaos::DriveProgress rest;
            chaos::drive(revived, requests, progress.submitted, progress.in_drain,
                         kDrainEvery, kBatch, rest);
            EXPECT_EQ(revived.state_digest(), baseline_digest)
                << cut_kind_name(kind) << " at op " << op << " (" << path << ")";
        }
        EXPECT_GT(wal_creates, 0u) << cut_kind_name(kind);
        EXPECT_GT(snapshot_ops, 0u) << cut_kind_name(kind);
        EXPECT_GT(ledger_ops, 0u) << cut_kind_name(kind);
    }
}

TEST(RotationRace, TailerObservesGaplessStreamAcrossRotations) {
    // Interleave rotation-heavy primary progress with a lagging tailer at
    // several cadences: the standby must see every record exactly once
    // and in order (its applied count tracks the primary's outcomes).
    const core::Instance instance = replication_instance(60);
    for (const std::size_t cadence : {1UL, 3UL, 7UL}) {
        const std::string pdir =
            fresh_work_dir("repl_race_p" + std::to_string(cadence));
        const std::string sdir =
            fresh_work_dir("repl_race_s" + std::to_string(cadence));
        ShipTransport transport(4);
        ServeConfig pcfg = primary_config(pdir);
        pcfg.checkpoint_every = 4;  // rotate constantly
        AdmissionController primary(instance, core::Scheme::kOnsite, pcfg);
        StandbyController standby(instance, core::Scheme::kOnsite,
                                  standby_config(sdir), transport);
        WalShipper shipper(primary, pdir, transport);
        std::size_t steps = 0;
        for (std::size_t i = 0; i < instance.requests.size(); ++i) {
            primary.submit(i, instance.requests[i]);
            if ((i + 1) % 5 == 0) primary.drain();
            if (++steps % cadence == 0) {
                shipper.pump();
                standby.poll();
            }
        }
        primary.drain();
        settle(shipper, standby, transport);
        const ServeMetrics pm = primary.metrics();
        const ServeMetrics sm = standby.controller().metrics();
        EXPECT_EQ(sm.processed + sm.shed, pm.processed + pm.shed)
            << "cadence " << cadence;
        EXPECT_EQ(standby.controller().state_digest(), primary.state_digest())
            << "cadence " << cadence;
        EXPECT_GT(standby.stats().rotates_applied, 2u) << "cadence " << cadence;
        EXPECT_EQ(standby.stats().frames_gap, 0u) << "clean link has no gaps";
    }
}

TEST(RotationRace, ConcurrentTailerThreadStaysGapless) {
    // A real second thread tails the WAL while the primary decides and
    // rotates — the TSan job proves the locking, this gate proves the
    // stream: gapless, in-order, digest-identical at quiescence.
    const core::Instance instance = replication_instance(80);
    const std::string pdir = fresh_work_dir("repl_thread_p");
    const std::string sdir = fresh_work_dir("repl_thread_s");
    ShipTransport transport(8);
    ServeConfig pcfg = primary_config(pdir);
    pcfg.checkpoint_every = 4;
    AdmissionController primary(instance, core::Scheme::kOnsite, pcfg);
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    std::atomic<bool> done{false};
    std::thread tailer([&] {
        while (!done.load(std::memory_order_acquire)) {
            shipper.pump();
            standby.poll();
        }
    });
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        primary.submit(i, instance.requests[i]);
        if ((i + 1) % 5 == 0) primary.drain();
    }
    primary.drain();
    done.store(true, std::memory_order_release);
    tailer.join();
    settle(shipper, standby, transport);
    EXPECT_EQ(standby.controller().state_digest(), primary.state_digest());
    EXPECT_EQ(standby.stats().frames_gap, 0u);
    EXPECT_EQ(standby.stats().frames_corrupt, 0u);
}

TEST(FailoverChaos, GatePassesOnBothSchemesWithLag) {
    const core::Instance instance = replication_instance(60);
    for (const core::Scheme scheme :
         {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        for (const std::size_t lag : {1UL, 4UL}) {
            FailoverChaosConfig cfg;
            cfg.scheme = scheme;
            cfg.master_seed = 0xFEEDBEEFull;
            cfg.kill_points = 6;
            cfg.checkpoint_every = 8;
            cfg.queue_capacity = 4;
            cfg.batch = 2;
            cfg.ship_every = lag;
            const FailoverChaosResult result =
                run_failover_chaos_study(instance, cfg);
            EXPECT_TRUE(result.ok())
                << "scheme " << static_cast<int>(scheme) << " lag " << lag
                << ": failed " << result.failed_trials << "/"
                << result.trials.size();
            ASSERT_EQ(result.trials.size(), 6u);
            std::size_t rotation_kills = 0;
            std::size_t process_crashes = 0;
            std::size_t power_cuts = 0;
            std::size_t faulty = 0;
            for (const FailoverTrial& trial : result.trials) {
                EXPECT_TRUE(trial.ok())
                    << cut_kind_name(trial.kind) << " at op " << trial.cut_at_op
                    << " (" << trial.cut_op << " " << trial.cut_path << ")";
                if (chaos::cut_in_rotation(trial.cut_path)) ++rotation_kills;
                ++(trial.kind == CutKind::kProcessCrash ? process_crashes
                                                        : power_cuts);
                if (trial.faulty_transport) ++faulty;
            }
            EXPECT_GT(rotation_kills, 0u);
            EXPECT_GT(process_crashes, 0u);
            EXPECT_GT(power_cuts, 0u);
            EXPECT_GT(faulty, 0u);
            EXPECT_GT(result.total_disk_records_applied, 0u)
                << "no trial exercised promotion catch-up";
            if (lag == 1) {
                EXPECT_GT(result.link_faults.frames_dropped, 0u);
            }
        }
    }
}

TEST(FailoverChaos, DegradedPrimaryIsFailedOverLikeADeadOne) {
    const core::Instance instance = replication_instance(60);
    FailoverChaosConfig cfg;
    cfg.scheme = core::Scheme::kOnsite;
    cfg.master_seed = 0xDE6FADEDull;
    cfg.kill_points = 2;
    cfg.degraded_primary_trials = 4;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.batch = 2;
    cfg.ship_every = 2;
    const FailoverChaosResult result = run_failover_chaos_study(instance, cfg);
    EXPECT_TRUE(result.ok()) << "failed " << result.failed_trials << "/"
                             << result.trials.size();
    ASSERT_EQ(result.trials.size(), 6u);  // 2 kill + 4 degraded-primary
    std::size_t degraded = 0;
    std::size_t faulty = 0;
    for (const FailoverTrial& trial : result.trials) {
        EXPECT_TRUE(trial.crashed);
        EXPECT_TRUE(trial.ok());
        if (trial.degraded) ++degraded;
        if (trial.faulty_transport) ++faulty;
    }
    // A primary whose disk filled mid-stream counts as dead: the standby
    // was promoted from the degraded primary's durable WAL prefix and
    // finished the trace bit-identically in every degraded trial.
    EXPECT_EQ(degraded, 4u);
    EXPECT_GT(faulty, 0u);  // degraded failover also ran over a lossy link
}

}  // namespace
}  // namespace vnfr::serve::replication
