// Failover chaos harness: run a request trace once on a plain controller
// (the baseline), then repeatedly run a primary + shipped standby pair,
// each on its own simulated disk (FaultyVfs), cut the primary's process
// at a randomized mutating storage op — mid-group-commit, mid-ship,
// mid-checkpoint-rotation, mid-release, during standby lag — with the
// crash kind cycling by trial (process crash, power cut with a torn
// tail, clean power cut) and a faulty replication link on odd trials.
// Promote the standby from the primary's surviving disk image, finish
// the trace on the promoted controller, and gate that the result is
// indistinguishable from the uninterrupted run: bit-identical state
// digest, identical revenue bits, the same admitted set with no
// double-admits, zero capacity violations under independent
// verification, and a clean scrub of the promoted controller's files.
//
// Cut points, fault schedules, and the driving pattern derive from
// counter-based RNG streams of the master seed — bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/offline.hpp"
#include "serve/faults/chaos_support.hpp"
#include "serve/faults/faulty_vfs.hpp"
#include "serve/replication/ship_transport.hpp"
#include "serve/snapshot.hpp"

namespace vnfr::serve::replication {

struct FailoverChaosConfig {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::uint64_t master_seed{0};
    /// Number of randomized cut-and-promote trials. The crash kind cycles
    /// process crash, torn-tail power cut, clean power cut by trial; odd
    /// trials run a faulty link.
    std::size_t kill_points{25};
    /// Controller snapshot cadence (WAL records between checkpoints).
    std::size_t checkpoint_every{16};
    /// Admission queue bound; the drive pattern overflows it on purpose
    /// so shedding is exercised across failovers.
    std::size_t queue_capacity{8};
    /// WAL records per fdatasync in pump (group commit).
    std::size_t group_commit{4};
    /// Replication beat cadence: the shipper pumps and the standby polls
    /// once every `ship_every` drive steps. 1 is a hot standby; larger
    /// values open a lag window the promotion must close from disk.
    std::size_t ship_every{1};
    /// Bounded channel capacity in frames (backpressure realism).
    std::size_t transport_capacity{4};
    /// Mangle the data direction on odd trials (drop / truncate /
    /// duplicate / reorder, ~8% each) to exercise resync.
    bool transport_faults{true};
    /// Extra trials in which the primary does not die but DEGRADES: its
    /// storage (a FaultyVfs) starts returning persistent ENOSPC on
    /// writes, the controller enters read-only degraded mode, and the
    /// study treats it exactly like a dead primary — final ship of the
    /// durable tail, promotion of the standby from the primary's disk,
    /// and the trace finishing on the promoted controller under the same
    /// bit-identical gates. 0 disables (the default keeps older trial
    /// counts stable).
    std::size_t degraded_primary_trials{0};
};

/// One cut-and-promote trial's outcome; `ok()` is the acceptance gate.
struct FailoverTrial {
    CutKind kind{CutKind::kProcessCrash};
    /// 1-based mutating-op index on the primary's disk at which it was
    /// cut; 0 for degraded-primary trials.
    std::uint64_t cut_at_op{0};
    std::string cut_op;    ///< the storage op the cut skipped
    std::string cut_path;  ///< the path that op addressed
    bool faulty_transport{false};
    bool crashed{false};  ///< the cut fired (or the primary degraded)
    /// The "kill" was a storage degradation, not a process death: the
    /// primary survived in read-only mode and was failed over from.
    bool degraded{false};
    std::size_t submitted_at_crash{0};
    /// Records the standby had applied when the primary died — the
    /// replication watermark's distance behind the crash point is the
    /// lag the disk tail replay had to close.
    std::uint64_t standby_applied_at_kill{0};
    std::uint64_t disk_records_applied{0};  ///< promotion catch-up from disk
    std::uint64_t disk_records_skipped{0};  ///< already shipped (covered set)
    std::uint64_t promote_torn_tail_bytes{0};
    chaos::Verdict verdict;  ///< the promoted controller vs the baseline

    [[nodiscard]] bool ok() const { return crashed && verdict.ok(); }
};

struct FailoverChaosResult {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::uint64_t baseline_digest{0};
    ServeMetrics baseline_metrics;
    std::uint64_t baseline_outcomes{0};
    bool baseline_capacity_ok{false};
    /// The no-kill control: a fully shipped standby promotes to the
    /// baseline digest with ZERO records recovered from disk — shipping
    /// alone replicates the full state.
    bool sync_promote_ok{false};
    /// In the control run the shipper's ack processing released at least
    /// one rotated-out generation (retention is bounded, not hoarding).
    bool sync_release_ok{false};
    std::vector<FailoverTrial> trials;
    std::size_t failed_trials{0};
    /// Link-level fault exposure across all trials, so a passing study
    /// can prove the adversarial paths actually ran.
    TransportStats transport_totals;
    std::uint64_t total_resync_rewinds{0};
    std::uint64_t total_disk_records_applied{0};

    [[nodiscard]] bool ok() const {
        return baseline_capacity_ok && sync_promote_ok && sync_release_ok &&
               failed_trials == 0;
    }
};

/// Runs the study over `instance.requests` as the stream. All storage
/// lives in per-run FaultyVfs instances — nothing touches the real disk.
/// Throws std::invalid_argument for an empty trace.
FailoverChaosResult run_failover_chaos_study(const core::Instance& instance,
                                             const FailoverChaosConfig& config);

}  // namespace vnfr::serve::replication
