#include "serve/faults/failover_chaos.hpp"

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/verify.hpp"
#include "serve/admission_controller.hpp"
#include "serve/replication/failover.hpp"
#include "serve/replication/standby.hpp"
#include "serve/replication/wal_shipper.hpp"

namespace vnfr::serve::replication {

namespace {

using chaos::assemble_decisions;
using chaos::DriveProgress;
using chaos::drive;
using chaos::drive_with_tick;
using chaos::judge;
using chaos::rebuild_queue;

// Each side of the pair owns a FaultyVfs, so both directories are names
// in separate flat namespaces.
constexpr const char* kPrimaryDir = "/primary";
constexpr const char* kStandbyDir = "/standby";

/// The crash kinds cut trials cycle through, indexed by trial % 3.
constexpr CutKind kCutKinds[] = {CutKind::kProcessCrash,
                                 CutKind::kPowerCutTornTail,
                                 CutKind::kPowerCutClean};

/// Frames a link holds (backpressure realism).
constexpr std::size_t kTransportCapacity = 4;

/// Adds `link`'s traffic and fault counts to the study totals.
void add_stats(FailoverChaosResult& result, const FaultyShipTransport& link) {
    const TransportStats traffic = link.stats();
    result.transport_totals.frames_sent += traffic.frames_sent;
    result.transport_totals.frames_delivered += traffic.frames_delivered;
    result.transport_totals.sends_rejected_full += traffic.sends_rejected_full;
    result.transport_totals.acks_recorded += traffic.acks_recorded;
    const TransportFaultStats faults = link.fault_stats();
    result.link_faults.frames_dropped += faults.frames_dropped;
    result.link_faults.frames_truncated += faults.frames_truncated;
    result.link_faults.frames_duplicated += faults.frames_duplicated;
    result.link_faults.frames_reordered += faults.frames_reordered;
}

/// Pumps the link until it is fully drained and quiescent (control runs
/// only — a lagging trial never settles before its kill).
void settle_link(WalShipper& shipper, StandbyController& standby,
                 ShipTransport& transport) {
    for (int i = 0; i < 10000; ++i) {
        const std::size_t sent = shipper.pump();
        const std::size_t got = standby.poll();
        if (sent == 0 && got == 0 && transport.in_flight() == 0) return;
    }
    throw std::logic_error("failover chaos: replication link failed to settle");
}

/// The link plan of one trial: drop / truncate / duplicate / reorder 8%
/// each when `faulty`, a perfect link otherwise.
TransportFaultPlan link_plan(bool faulty, std::uint64_t seed) {
    TransportFaultPlan plan;
    plan.seed = seed;
    if (faulty) {
        plan.drop = 0.08;
        plan.truncate = 0.08;
        plan.duplicate = 0.08;
        plan.reorder = 0.08;
    }
    return plan;
}

}  // namespace

FailoverChaosResult run_failover_chaos_study(const core::Instance& instance,
                                             const FailoverChaosConfig& config) {
    const std::vector<workload::Request>& requests = instance.requests;
    if (requests.empty()) {
        throw std::invalid_argument("failover chaos: instance has no requests");
    }
    if (config.batch == 0) {
        throw std::invalid_argument("failover chaos: batch must be >= 1");
    }
    const std::size_t ship_every = std::max<std::size_t>(1, config.ship_every);

    // Same cadence formula as the disk-fault study: overflow the queue
    // between drains so shedding stays exercised across failovers.
    common::Rng pattern_rng = common::stream_rng(config.master_seed, 1);
    const std::size_t drain_every =
        config.queue_capacity +
        static_cast<std::size_t>(pattern_rng.uniform_int(
            1, static_cast<std::int64_t>(config.queue_capacity)));

    ServeConfig primary_serve;
    primary_serve.data_dir = kPrimaryDir;
    primary_serve.checkpoint_every = config.checkpoint_every;
    primary_serve.queue_capacity = config.queue_capacity;
    primary_serve.retain_wals = true;  // the shipper tails rotated gens

    ServeConfig standby_serve = primary_serve;
    standby_serve.data_dir = kStandbyDir;
    standby_serve.retain_wals = false;

    FailoverChaosResult result;
    result.scheme = config.scheme;

    // Baseline: one uninterrupted, unreplicated run with the primary's
    // storage settings. A replicated primary performs exactly these
    // mutating ops plus the unlinks its shipper's releases add, so every
    // op index past construction is a cut point that fires.
    chaos::Baseline baseline;
    std::uint64_t construction_ops = 0;
    std::uint64_t baseline_ops = 0;
    {
        FaultyVfs disk;
        ServeConfig cfg = primary_serve;
        cfg.vfs = &disk;
        AdmissionController controller(instance, config.scheme, cfg);
        construction_ops = disk.op_count();
        DriveProgress progress;
        drive(controller, requests, 0, false, drain_every, config.batch, progress);
        baseline_ops = disk.op_count();
        baseline = chaos::capture_baseline(controller);
        result.baseline_capacity_ok =
            core::verify_schedule(instance, assemble_decisions(instance, controller))
                .ok();
    }
    result.baseline_digest = baseline.digest;
    result.baseline_metrics = baseline.metrics;
    result.baseline_outcomes = baseline.metrics.processed + baseline.metrics.shed;

    // Control: never kill the primary; a fully shipped standby must
    // promote to the baseline digest with nothing left to recover from
    // disk — replication alone carries the complete state.
    {
        FaultyVfs primary_disk;
        FaultyVfs standby_disk;
        ShipTransport transport(kTransportCapacity);
        ServeConfig pcfg = primary_serve;
        pcfg.vfs = &primary_disk;
        AdmissionController primary(instance, config.scheme, pcfg);
        ServeConfig scfg = standby_serve;
        scfg.vfs = &standby_disk;
        StandbyController standby(instance, config.scheme, scfg, transport);
        WalShipper shipper(primary, kPrimaryDir, transport);
        DriveProgress progress;
        std::size_t steps = 0;
        drive_with_tick(primary, requests, 0, false, drain_every, config.batch, progress, [&] {
            if (++steps % ship_every == 0) {
                shipper.pump();
                standby.poll();
            }
        });
        settle_link(shipper, standby, transport);
        FailoverCoordinator coordinator(kPrimaryDir, primary_disk);
        const PromotionReport report = coordinator.promote(standby);
        result.sync_promote_ok = report.disk_records_applied == 0 &&
                                 report.promoted_digest == result.baseline_digest;
        result.sync_release_ok = shipper.stats().generations_released > 0;
    }

    // Promotes `standby` from the dead (or degraded) primary's disk,
    // finishes the trace on it, and judges the result.
    const auto promote_and_finish = [&](FailoverTrial& outcome,
                                        StandbyController& standby,
                                        Vfs& primary_disk,
                                        const DriveProgress& progress) {
        FailoverCoordinator coordinator(kPrimaryDir, primary_disk);
        const PromotionReport report = coordinator.promote(standby);
        outcome.disk_records_applied = report.disk_records_applied;
        outcome.disk_records_skipped = report.disk_records_skipped;
        outcome.promote_torn_tail_bytes = report.torn_tail_bytes;
        result.total_disk_records_applied += report.disk_records_applied;

        // Resume admissions on the promoted standby: rebuild the
        // crash-time queue, complete any interrupted drain, finish the
        // trace — the same continuation the disk-fault study applies to
        // a revived controller.
        AdmissionController& promoted = standby.controller();
        rebuild_queue(promoted, requests, progress.submitted);
        DriveProgress rest;
        drive(promoted, requests, progress.submitted, progress.in_drain,
              drain_every, config.batch, rest);
        outcome.verdict = judge(instance, promoted, kStandbyDir, baseline);
    };

    // Cut trials.
    for (std::size_t trial = 0; trial < config.kill_points; ++trial) {
        common::Rng rng = common::stream_rng(config.master_seed, 2000 + trial);
        FailoverTrial outcome;
        outcome.kind = kCutKinds[trial % 3];
        outcome.faulty_transport = trial % 2 == 1;
        outcome.cut_at_op = static_cast<std::uint64_t>(rng.uniform_int(
            static_cast<std::int64_t>(construction_ops) + 1,
            static_cast<std::int64_t>(std::max(baseline_ops, construction_ops + 1))));

        DiskFaultPlan plan;
        plan.seed = config.master_seed ^ (0xC07FA11ULL + trial);
        plan.cut_at_op = outcome.cut_at_op;
        plan.cut_kind = outcome.kind;
        FaultyVfs primary_disk(plan);
        FaultyVfs standby_disk;
        FaultyShipTransport transport(
            kTransportCapacity,
            link_plan(outcome.faulty_transport, config.master_seed ^ (0xFA017EE0ULL + trial)));
        ServeConfig scfg = standby_serve;
        scfg.vfs = &standby_disk;
        StandbyController standby(instance, config.scheme, scfg, transport);
        DriveProgress progress;
        {
            ServeConfig pcfg = primary_serve;
            pcfg.vfs = &primary_disk;
            AdmissionController victim(instance, config.scheme, pcfg);
            WalShipper shipper(victim, kPrimaryDir, transport);
            std::size_t steps = 0;
            try {
                drive_with_tick(victim, requests, 0, false, drain_every, config.batch, progress,
                                [&] {
                                    if (++steps % ship_every == 0) {
                                        shipper.pump();
                                        standby.poll();
                                    }
                                });
            } catch (const CrashInjected& crash) {
                outcome.crashed = true;
                outcome.cut_op = crash.op();
                outcome.cut_path = crash.path();
            }
            add_stats(result, transport);
            result.total_resync_rewinds += shipper.stats().resync_rewinds;
        }
        outcome.submitted_at_crash = progress.submitted;

        // The primary host is gone, but frames already on the wire may
        // still arrive — drain them before promotion.
        standby.poll();
        outcome.standby_applied_at_kill = standby.stats().records_applied;

        if (outcome.crashed) {
            promote_and_finish(outcome, standby, primary_disk, progress);
        }

        if (!outcome.ok()) ++result.failed_trials;
        result.trials.push_back(std::move(outcome));
    }

    // Degraded-primary trials: the primary's disk fills mid-run
    // (persistent ENOSPC on every write), the controller degrades into
    // read-only mode instead of dying, and the study fails over from it
    // exactly as from a dead host — ship the durable tail it can still
    // serve, promote the standby from its disk image, finish the trace on
    // the promoted controller, and hold the same bit-identical gates.
    for (std::size_t trial = 0; trial < config.degraded_primary_trials; ++trial) {
        common::Rng rng = common::stream_rng(config.master_seed, 5000 + trial);
        FailoverTrial outcome;
        outcome.faulty_transport = trial % 2 == 1;

        FaultyVfs primary_disk;  // about to fill
        FaultyVfs standby_disk;
        FaultyShipTransport transport(
            kTransportCapacity,
            link_plan(outcome.faulty_transport, config.master_seed ^ (0xDE64ADE0ULL + trial)));
        ServeConfig scfg = standby_serve;
        scfg.vfs = &standby_disk;
        StandbyController standby(instance, config.scheme, scfg, transport);

        ServeConfig pcfg = primary_serve;
        pcfg.vfs = &primary_disk;
        AdmissionController primary(instance, config.scheme, pcfg);
        WalShipper shipper(primary, kPrimaryDir, transport);
        // Arm the disk after a randomized prefix of successful writes,
        // kept well below the trace's write count so the degradation
        // always fires mid-stream. ENOSPC is persistent: a full disk does
        // not heal between retries, so the controller must degrade rather
        // than spin.
        const std::int64_t writes_floor = static_cast<std::int64_t>(
            result.baseline_outcomes /
            (2 * config.batch));
        const std::uint64_t fail_from = static_cast<std::uint64_t>(
            rng.uniform_int(2, std::max<std::int64_t>(3, writes_floor)));
        primary_disk.script_fault(VfsOp::kWrite, fail_from, -1, ENOSPC, false);

        DriveProgress progress;
        std::size_t steps = 0;
        try {
            drive_with_tick(primary, requests, 0, false, drain_every, config.batch, progress,
                            [&] {
                                if (++steps % ship_every == 0) {
                                    shipper.pump();
                                    standby.poll();
                                }
                            });
        } catch (const StorageDegradedError&) {
            outcome.crashed = true;  // degraded counts as dead for failover
            outcome.degraded =
                primary.storage_health() == StorageHealth::kDegraded;
        }
        outcome.submitted_at_crash = progress.submitted;

        // The degraded primary still serves reads; drain everything it
        // had made durable before the disk filled.
        settle_link(shipper, standby, transport);
        add_stats(result, transport);
        result.total_resync_rewinds += shipper.stats().resync_rewinds;
        outcome.standby_applied_at_kill = standby.stats().records_applied;

        if (outcome.crashed && outcome.degraded) {
            promote_and_finish(outcome, standby, primary_disk, progress);
        }

        if (!outcome.ok() || !outcome.degraded) ++result.failed_trials;
        result.trials.push_back(std::move(outcome));
    }
    return result;
}

}  // namespace vnfr::serve::replication
