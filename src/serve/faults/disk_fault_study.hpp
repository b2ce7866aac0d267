// Disk-fault chaos harness over the Vfs layer: run a request trace once
// on a fault-free FaultyVfs (the baseline, which also counts the run's
// mutating storage operations), then attack replicas of that run three
// ways and gate that admission state survives bit-identically:
//
//   cut trials          end the process at a scripted mutating-op index,
//                       once per crash kind: a process crash (the page
//                       cache survives, fds go stale) and a power cut
//                       (the un-fsync'ed page cache drops, the live WAL
//                       may keep a torn prefix of its un-synced suffix).
//                       Revive a controller on the surviving bytes,
//                       resubmit the uncovered suffix, finish the trace:
//                       digest, revenue, metrics, and admitted set must
//                       equal the baseline bit-for-bit with no
//                       double-admits. Exhaustive mode cuts at EVERY
//                       mutating op of the baseline run — every WAL
//                       record's write and fdatasync, both
//                       checkpoint-rotation stages, mid-batch
//                       writes — under both kinds.
//   transient trials    seeded bursts of EIO write/sync failures and
//                       short writes; the retry layer must absorb every
//                       one (controller never degrades) and the final
//                       state must equal the baseline.
//   degraded trials     persistent ENOSPC from a scripted write index
//                       on; the controller must enter read-only degraded
//                       mode (refusing new admissions with
//                       StorageDegradedError, never silently dropping),
//                       then — once the disk "frees space" — recover via
//                       an explicit try_recover_storage() call (even
//                       trials) or the degraded-probe path (odd trials),
//                       and finish the trace to the baseline state.
//
// Every trial ends with a read-only WAL scrub of the surviving
// directory; the baseline additionally proves the scrubber's teeth by
// flipping one durable bit and checking the scrub reports it, and
// proves that reopening its own checkpoint reproduces its digest.
//
// Fault schedules derive from counter-based RNG streams of the master
// seed — the whole study is replayable bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/offline.hpp"
#include "serve/faults/chaos_support.hpp"
#include "serve/faults/faulty_vfs.hpp"
#include "serve/snapshot.hpp"

namespace vnfr::serve {

struct DiskFaultStudyConfig {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::uint64_t master_seed{0};
    /// Number of sampled cut points (ignored in exhaustive mode); each
    /// point is cut once per crash kind.
    std::size_t power_cut_points{12};
    /// Cut at EVERY mutating storage op of the baseline run instead of
    /// sampling — the full crash matrix, one trial per (op index, kind).
    bool exhaustive_power_cuts{false};
    std::size_t transient_trials{3};
    std::size_t degraded_trials{2};
    /// Controller snapshot cadence (WAL records between checkpoints);
    /// kept small so rotations land inside the cut window often.
    std::size_t checkpoint_every{8};
    std::size_t queue_capacity{8};
    /// Requests per pump, i.e. WAL records per commit group (>= 1), so
    /// cuts land mid-group.
    std::size_t batch{4};
    /// Base retry budget per unit of injected burst length: a transient
    /// trial with burst length B runs with B * retry_max_attempts
    /// attempts, so the budget always dominates the fault bursts it is
    /// expected to absorb.
    std::size_t retry_max_attempts{6};
};

/// The crash kinds every cut point is tried under, in trial order.
inline constexpr CutKind kCutTrialKinds[] = {CutKind::kProcessCrash,
                                             CutKind::kPowerCutTornTail};

struct CutTrial {
    CutKind kind{CutKind::kProcessCrash};
    std::uint64_t cut_at_op{0};  ///< 1-based mutating-op index of the cut
    bool cut_fired{false};
    std::string cut_op;    ///< the storage op the cut skipped
    std::string cut_path;  ///< the path that op addressed
    std::size_t submitted_at_cut{0};
    /// Torn WAL tail the revived recovery observed and dropped.
    std::uint64_t recovered_torn_tail_bytes{0};
    chaos::Verdict verdict;

    [[nodiscard]] bool ok() const { return cut_fired && verdict.ok(); }
};

struct TransientFaultTrial {
    /// Faults the FaultyVfs actually injected (write errors + sync
    /// errors + short writes) — proof of exposure.
    std::uint64_t faults_injected{0};
    /// Retries the storage layer absorbed (WalWriter + snapshot paths).
    std::uint64_t retries_absorbed{0};
    bool stayed_healthy{false};  ///< never entered degraded mode
    chaos::Verdict verdict;

    [[nodiscard]] bool ok() const { return stayed_healthy && verdict.ok(); }
};

struct DegradedModeTrial {
    std::uint64_t fail_from_write{0};  ///< writes before persistent ENOSPC
    bool entered_degraded{false};
    /// Admissions refused with StorageDegradedError while degraded —
    /// shed loudly, never silently dropped or half-logged.
    std::uint64_t degraded_refusals{0};
    bool recovered{false};
    bool recovered_via_probe{false};  ///< auto-probe path vs explicit call
    chaos::Verdict verdict;

    [[nodiscard]] bool ok() const {
        return entered_degraded && degraded_refusals > 0 && recovered &&
               verdict.ok();
    }
};

struct DiskFaultStudyResult {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::uint64_t baseline_digest{0};
    ServeMetrics baseline_metrics;
    std::uint64_t baseline_outcomes{0};
    /// Mutating storage ops in the baseline run — the cut domain.
    std::uint64_t baseline_mutating_ops{0};
    /// Restarting an idle controller from the baseline's own checkpoint
    /// reproduces its digest.
    bool baseline_reload_ok{false};
    bool baseline_capacity_ok{false};
    bool baseline_scrub_clean{false};
    /// The scrubber detected a single flipped durable bit in a retained
    /// generation (and reported clean again once it was flipped back).
    bool corruption_detected{false};
    /// Both kinds per cut point, in kCutTrialKinds order.
    std::vector<CutTrial> cut_trials;
    std::vector<TransientFaultTrial> transient_trials;
    std::vector<DegradedModeTrial> degraded_trials;
    std::size_t failed_cut_trials{0};
    std::size_t failed_transient_trials{0};
    std::size_t failed_degraded_trials{0};
    /// Aggregate fault exposure (all transient trials).
    std::uint64_t transient_faults_injected{0};
    std::uint64_t transient_retries_absorbed{0};

    [[nodiscard]] bool ok() const {
        return baseline_reload_ok && baseline_capacity_ok &&
               baseline_scrub_clean && corruption_detected &&
               failed_cut_trials == 0 &&
               failed_transient_trials == 0 && failed_degraded_trials == 0 &&
               (transient_trials.empty() || transient_faults_injected > 0);
    }
};

/// Runs the study over `instance.requests` as the stream. All storage
/// lives in per-trial FaultyVfs instances — nothing touches the real
/// disk. Throws std::invalid_argument for an empty trace.
DiskFaultStudyResult run_disk_fault_study(const core::Instance& instance,
                                          const DiskFaultStudyConfig& config);

}  // namespace vnfr::serve
