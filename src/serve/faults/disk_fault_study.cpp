#include "serve/faults/disk_fault_study.hpp"

#include <cerrno>
#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/verify.hpp"
#include "serve/admission_controller.hpp"
#include "serve/wal.hpp"
#include "serve/faults/wal_scrubber.hpp"

namespace vnfr::serve {

namespace {

using chaos::assemble_decisions;
using chaos::DriveProgress;
using chaos::drive;
using chaos::judge;
using chaos::rebuild_queue;

// All trial storage lives inside per-trial FaultyVfs instances, so the
// data directory is just a name in their flat namespace.
constexpr const char* kDataDir = "/faultdisk";

// RNG stream bases per trial family (disjoint from the other studies).
constexpr std::uint64_t kPatternStream = 1;
constexpr std::uint64_t kCutStream = 2000;
constexpr std::uint64_t kDegradedStream = 3000;

// Plan-seed salts so no two trials share a fault stream.
constexpr std::uint64_t kCutSalt = 0xD15C0C07ULL;
constexpr std::uint64_t kTransientSalt = 0xD15CF417ULL;

/// Proves the scrubber detects latent corruption: XOR one bit into a
/// durable byte of the oldest retained generation (scrubbed in strict
/// mode; a newest-generation flip could masquerade as a legal torn
/// tail), or of the snapshot when only one generation exists, then check
/// the scrub reports it — and reports clean again once flipped back.
bool prove_corruption_detection(FaultyVfs& disk) {
    const std::vector<std::uint64_t> gens = list_wal_generations(disk, kDataDir);
    std::string victim;
    for (const std::uint64_t gen : gens) {  // oldest first
        const std::string path = wal_file_path(kDataDir, gen);
        if (disk.read_file(path).size() > kWalHeaderSize + 16) {
            victim = path;
            break;
        }
    }
    const std::string newest =
        gens.empty() ? std::string() : wal_file_path(kDataDir, gens.back());
    if (victim.empty() || victim == newest) {
        const std::string snapshot = std::string(kDataDir) + "/snapshot.bin";
        if (!disk.file_exists(snapshot)) return false;
        victim = snapshot;
    }
    // Flip a bit inside the first record region (never the header, whose
    // own CRC would also catch it but tests a different code path).
    const std::uint64_t offset = kWalHeaderSize + 5 < disk.read_file(victim).size()
                                     ? kWalHeaderSize + 5
                                     : 8;
    disk.corrupt_durable_byte(victim, offset, 0x10);
    const bool detected = !scrub_data_dir(disk, kDataDir).clean();
    disk.corrupt_durable_byte(victim, offset, 0x10);  // undo
    const bool clean_again = scrub_data_dir(disk, kDataDir).clean();
    return detected && clean_again;
}

}  // namespace

DiskFaultStudyResult run_disk_fault_study(const core::Instance& instance,
                                          const DiskFaultStudyConfig& config) {
    const std::vector<workload::Request>& requests = instance.requests;
    if (requests.empty()) {
        throw std::invalid_argument("disk fault study: instance has no requests");
    }

    // Same overload-inducing drain cadence as the failover study: more
    // submissions than queue slots between drains, so faults land in
    // shed paths too.
    common::Rng pattern_rng =
        common::stream_rng(config.master_seed, kPatternStream);
    const std::size_t drain_every =
        config.queue_capacity +
        static_cast<std::size_t>(pattern_rng.uniform_int(
            1, static_cast<std::int64_t>(config.queue_capacity)));

    ServeConfig serve;
    serve.data_dir = kDataDir;
    serve.checkpoint_every = config.checkpoint_every;
    serve.queue_capacity = config.queue_capacity;
    serve.group_commit = config.group_commit;
    // Retain rotated generations: the scrubber then audits the full WAL
    // history of every trial, not just the live file.
    serve.retain_wals = true;
    serve.storage_retry.max_attempts =
        static_cast<int>(config.retry_max_attempts);

    DiskFaultStudyResult result;
    result.scheme = config.scheme;

    // Baseline: an uninterrupted run on a fault-free FaultyVfs. Its
    // mutating-op count is the cut domain; its write count scales the
    // degraded trials' ENOSPC onset.
    chaos::Baseline baseline;
    std::uint64_t baseline_writes = 0;
    {
        FaultyVfs disk;
        ServeConfig cfg = serve;
        cfg.vfs = &disk;
        {
            AdmissionController controller(instance, config.scheme, cfg);
            DriveProgress progress;
            drive(controller, requests, 0, false, drain_every, progress);
            baseline = chaos::capture_baseline(controller);
            result.baseline_capacity_ok =
                core::verify_schedule(instance,
                                      assemble_decisions(instance, controller))
                    .ok();
            result.baseline_mutating_ops = disk.op_count();
            baseline_writes = disk.stats().writes;
            result.baseline_scrub_clean = scrub_data_dir(disk, kDataDir).clean();
            result.corruption_detected = prove_corruption_detection(disk);
            controller.checkpoint();
        }
        // Reopening the checkpointed directory must reproduce the digest.
        const AdmissionController reloaded(instance, config.scheme, cfg);
        result.baseline_reload_ok = reloaded.state_digest() == baseline.digest;
    }
    result.baseline_digest = baseline.digest;
    result.baseline_metrics = baseline.metrics;
    result.baseline_outcomes = baseline.metrics.processed + baseline.metrics.shed;

    // Cut trials: end the process at a mutating-op index under each
    // crash kind, revive on what the page cache kept, finish the trace,
    // compare.
    const std::size_t cut_points =
        config.exhaustive_power_cuts
            ? static_cast<std::size_t>(result.baseline_mutating_ops)
            : config.power_cut_points;
    for (std::size_t point = 0; point < cut_points; ++point) {
        common::Rng rng = common::stream_rng(config.master_seed, kCutStream + point);
        const std::uint64_t cut_at_op =
            config.exhaustive_power_cuts
                ? static_cast<std::uint64_t>(point + 1)
                : static_cast<std::uint64_t>(rng.uniform_int(
                      1, static_cast<std::int64_t>(
                             std::max<std::uint64_t>(1, result.baseline_mutating_ops))));
        for (const CutKind kind : kCutTrialKinds) {
            CutTrial outcome;
            outcome.kind = kind;
            outcome.cut_at_op = cut_at_op;

            DiskFaultPlan plan;
            plan.seed = config.master_seed ^ (kCutSalt + point);
            plan.cut_at_op = cut_at_op;
            plan.cut_kind = kind;
            FaultyVfs disk(plan);
            ServeConfig cfg = serve;
            cfg.vfs = &disk;

            DriveProgress progress;
            try {
                // The cut can fire inside the constructor (WAL creation
                // is mutating) — the victim scope covers both.
                AdmissionController victim(instance, config.scheme, cfg);
                drive(victim, requests, 0, false, drain_every, progress);
            } catch (const CrashInjected& crash) {
                outcome.cut_fired = true;
                outcome.cut_op = crash.op();
                outcome.cut_path = crash.path();
            }
            outcome.submitted_at_cut = progress.submitted;

            if (outcome.cut_fired) {
                // Restart on the surviving bytes: recovery replays the
                // durable prefix (dropping any torn tail), the queue is
                // rebuilt through the normal submit path, an interrupted
                // drain refires first, then the trace completes.
                AdmissionController revived(instance, config.scheme, cfg);
                outcome.recovered_torn_tail_bytes =
                    revived.recovery_stats().torn_tail_bytes;
                rebuild_queue(revived, requests, progress.submitted);
                DriveProgress rest;
                drive(revived, requests, progress.submitted, progress.in_drain,
                      drain_every, rest);
                outcome.verdict = judge(instance, revived, kDataDir, baseline);
            }

            if (!outcome.ok()) ++result.failed_cut_trials;
            result.cut_trials.push_back(std::move(outcome));
        }
    }

    // Transient-fault trials: seeded bursts of spurious EIO and short
    // writes; bounded retries must absorb all of them invisibly.
    for (std::size_t trial = 0; trial < config.transient_trials; ++trial) {
        TransientFaultTrial outcome;
        DiskFaultPlan plan;
        plan.seed = config.master_seed ^ (kTransientSalt + trial);
        plan.write_error_rate = 0.05;
        plan.sync_error_rate = 0.05;
        plan.short_write_rate = 0.03;
        plan.transient_failures = 1 + static_cast<int>(trial % 2);
        FaultyVfs disk(plan);
        ServeConfig cfg = serve;
        cfg.vfs = &disk;
        // A burst of length B eats B attempts per independent fire, so
        // the budget scales with the burst: a fixed budget would make
        // exhaustion — and a spurious degradation — likely over a long
        // trace once fresh draws chain onto burst continuations.
        cfg.storage_retry.max_attempts =
            static_cast<int>(config.retry_max_attempts) *
            plan.transient_failures;

        bool degraded = false;
        try {
            AdmissionController controller(instance, config.scheme, cfg);
            DriveProgress progress;
            drive(controller, requests, 0, false, drain_every, progress);
            outcome.stayed_healthy =
                controller.storage_health() == StorageHealth::kHealthy;
            outcome.retries_absorbed =
                controller.storage_stats().transient_retries;
            outcome.verdict = judge(instance, controller, kDataDir, baseline);
        } catch (const StorageDegradedError&) {
            degraded = true;  // a transient burst must never degrade
        }
        outcome.faults_injected = disk.stats().injected_errors;
        if (degraded) outcome.stayed_healthy = false;
        result.transient_faults_injected += outcome.faults_injected;
        result.transient_retries_absorbed += outcome.retries_absorbed;

        if (!outcome.ok()) ++result.failed_transient_trials;
        result.transient_trials.push_back(outcome);
    }

    // Degraded-mode trials: the disk runs out of space mid-trace. The
    // controller must degrade loudly, keep refusing (not dropping) while
    // full, recover once space frees up — via the explicit call on even
    // trials, via the automatic probe path on odd ones — and then finish
    // the trace to the exact baseline state. The queue survives
    // degradation in-process, so no rebuild happens.
    for (std::size_t trial = 0; trial < config.degraded_trials; ++trial) {
        common::Rng rng =
            common::stream_rng(config.master_seed, kDegradedStream + trial);
        DegradedModeTrial outcome;
        FaultyVfs disk;
        ServeConfig cfg = serve;
        cfg.vfs = &disk;
        cfg.degraded_probe_every = 8;

        // Let the controller get off the ground (the constructor issues
        // one write), then ENOSPC every write from a seeded index on.
        outcome.fail_from_write = static_cast<std::uint64_t>(rng.uniform_int(
            2, std::max<std::int64_t>(
                   3, static_cast<std::int64_t>(baseline_writes) / 2)));
        disk.script_fault(VfsOp::kWrite, outcome.fail_from_write, -1, ENOSPC,
                          /*transient=*/false);

        AdmissionController controller(instance, config.scheme, cfg);
        DriveProgress progress;
        bool threw = false;
        try {
            drive(controller, requests, 0, false, drain_every, progress);
        } catch (const StorageDegradedError&) {
            threw = true;
        }
        outcome.entered_degraded =
            threw && controller.storage_health() == StorageHealth::kDegraded;

        if (outcome.entered_degraded) {
            // While the disk is still full every operation is refused
            // loudly — including automatic probes that then fail.
            for (int i = 0; i < 3; ++i) {
                try {
                    (void)controller.pump(0);
                } catch (const StorageDegradedError&) {
                }
            }
            disk.clear_scripted_faults();  // the disk "frees space"
            if (trial % 2 == 0) {
                outcome.recovered = controller.try_recover_storage();
            } else {
                // pump(0) decides nothing but walks the degraded-probe
                // path: every probe_every-th refusal retries recovery.
                for (int i = 0;
                     i < 64 &&
                     controller.storage_health() == StorageHealth::kDegraded;
                     ++i) {
                    try {
                        (void)controller.pump(0);
                    } catch (const StorageDegradedError&) {
                    }
                }
                outcome.recovered =
                    controller.storage_health() == StorageHealth::kHealthy;
                outcome.recovered_via_probe = true;
            }
            outcome.degraded_refusals =
                controller.storage_stats().degraded_refusals;

            if (outcome.recovered) {
                // Same process: the queue survived the rollback, so the
                // trace resumes exactly where the drive stopped.
                DriveProgress rest;
                drive(controller, requests, progress.submitted,
                      progress.in_drain, drain_every, rest);

                outcome.verdict = judge(instance, controller, kDataDir, baseline);
            }
        }

        if (!outcome.ok()) ++result.failed_degraded_trials;
        result.degraded_trials.push_back(outcome);
    }

    return result;
}

}  // namespace vnfr::serve
