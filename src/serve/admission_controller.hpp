// A long-lived, crash-safe service wrapper around the online primal-dual
// schedulers: requests stream in through a bounded admission queue, every
// durable outcome (decision or shed) is WAL-logged before it becomes
// observable, and the controller state checkpoints once the WAL since
// the last snapshot reaches kCheckpointWalRatio times the snapshot's
// bytes (or every `checkpoint_every` outcomes, when that is set).
//
// Persistence is snapshot + ledger + WAL in `data_dir`: snapshot.bin
// holds the fixed-size scheduler state and bookkeeping (O(cloudlets x
// horizon), replaced atomically at each checkpoint), snapshot.ledger the
// admitted requests (append-only: a checkpoint appends only the
// admissions since the previous one), and wal-<gen>.log the outcomes
// since the snapshot. The snapshot names the ledger length it vouches
// for, so a checkpoint costs the scheduler state plus O(new admissions),
// not the history.
//
// Bounded state. In memory the controller keeps the scheduler state, the
// queue and the admissions since the last checkpoint, never the history:
// state_digest() and admitted_records() read the durable ledger prefix
// back from storage (strictly, so a damaged ledger throws
// CorruptStateError there) and then the in-memory tail.
//
// Recovery contract. decide() of both primal-dual schedulers is a
// deterministic function of (instance, config, dual prices, ledger
// usage), so the controller persists exactly that state plus its own
// bookkeeping. Restart = load snapshot, check the ledger's header and
// length (no ledger record is read), then *re-execute* each WAL'd
// decision — at most one trigger's worth — against the restored
// scheduler and cross-check the logged outcome (a mismatch means the
// files lie about the state and recovery refuses to continue). The
// result is bit-identical controller state: same duals, same usage,
// same revenue bits, same admitted set.
//
// Idempotency. Every request carries a stream sequence number. A seq
// whose outcome is already durable ("covered") is skipped on
// resubmission, so a driver that replays its input after a crash cannot
// double-admit or double-charge. The covered set is a watermark plus a
// sparse overflow set, so it stays O(queue) in memory.
//
// Overload guard. The queue is bounded; when a submit overflows it, the
// lowest-payment request among (queued + incoming) is shed — logged,
// counted in shed_revenue, and reported to the caller. Ties prefer
// keeping the older request. Victim selection is O(log n) via a
// min-payment heap over the queued requests (lazily pruned), not a scan.
//
// Group commit. One pump(n) is one WAL commit group: it decides up to n
// queued requests in FIFO order, stages all of their records, and writes
// them with ONE write and ONE fdatasync, amortizing the dominant
// durability cost over the batch; drain() is the same path with an
// unbounded batch. Outcomes are applied (counters, admitted ledger,
// coverage — i.e. made observable) only after that fdatasync returned,
// so the durable-before-observable ordering is preserved; the crash
// window a batch opens is the same in kind as a single record's: the
// decided-but-uncommitted records vanish wholesale (they were never
// externalized) and are simply resubmitted after recovery. How many
// decisions share a sync is the caller's choice of n, never a setting.
// See DESIGN.md 6d for the window-by-window argument. Submit-path shed
// records never batch: submit() reports the shed synchronously, so its
// record is fdatasync'd before return.
//
// Thread safety. All mutable state is guarded by one internal
// common::Mutex (annotated for Clang thread-safety analysis): submit,
// pump, drain, checkpoint, and every accessor may be called from any
// thread. WAL appends and the checkpoint rotation happen while the lock
// is held, so the durable-before-observable ordering is preserved under
// concurrency. Decisions run one at a time in stream order: each one
// reads the dual prices the previous admission raised.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "core/instance.hpp"
#include "core/offline.hpp"
#include "core/schedule.hpp"
#include "serve/ledger.hpp"
#include "serve/snapshot.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve {

/// Thrown instead of accepting work the controller cannot durably log:
/// after a persistent storage error (ENOSPC, retries-exhausted EIO) the
/// controller enters degraded read-only mode — already-admitted state
/// keeps serving, but submit/pump/drain/apply_replicated refuse with this
/// error until storage recovers (see StorageHealth below).
class StorageDegradedError : public std::runtime_error {
  public:
    explicit StorageDegradedError(const std::string& what)
        : std::runtime_error(what) {}
};

/// Storage health of a controller. Degraded means a persistent storage
/// error interrupted WAL/snapshot durability: no new outcome can be
/// logged, so none is accepted. Recovery (an automatic probe on every
/// kDegradedProbeEvery-th refusal, or try_recover_storage()) repairs
/// the WAL tail and proves writability with a full checkpoint rotation
/// before the controller admits again. The replication layer treats a
/// degraded primary as dead — its durable WAL prefix is intact, so
/// failover promotes the standby exactly as after a crash.
enum class StorageHealth : std::uint8_t {
    kHealthy,
    kDegraded,
};

/// Counters of the storage fault-handling machinery.
struct StorageStats {
    /// Transient storage errors absorbed by bounded retries (WAL commits,
    /// snapshot writes, WAL creation).
    std::uint64_t transient_retries{0};
    /// Times the controller entered degraded read-only mode.
    std::uint64_t degraded_entries{0};
    /// Operations refused (with StorageDegradedError) while degraded.
    std::uint64_t degraded_refusals{0};
    /// Successful recoveries out of degraded mode.
    std::uint64_t recoveries{0};
};

struct ServeConfig {
    /// Directory holding snapshot.bin, snapshot.ledger and wal-<gen>.log.
    /// Must exist.
    std::string data_dir;
    /// Unset (the default): take a snapshot and rotate the WAL when the
    /// WAL bytes since the snapshot reach kCheckpointWalRatio times the
    /// snapshot's bytes, so replay after a crash is bounded by the
    /// snapshot's size and a rotation's cost is spread over that many
    /// WAL bytes. Set: rotate once the generation holds at least this
    /// many WAL records instead (>= 1). Either trigger is checked after
    /// each pump (and each replicated record), so a pump batch is never
    /// split across generations.
    std::optional<std::size_t> checkpoint_every;
    /// Bounded admission queue size; submits beyond it shed the
    /// lowest-payment request.
    std::size_t queue_capacity{256};
    /// Keep rotated-out WAL generations on disk instead of unlinking them
    /// at checkpoint. A replication shipper tails those files and releases
    /// them via release_wals_below() once the standby has acknowledged
    /// them — unlinking earlier would open a silent gap in the shipped
    /// stream.
    bool retain_wals{false};
    /// Start in standby (follower) role: submit/pump/drain are refused
    /// and state advances only through apply_replicated(), until
    /// mark_promoted() flips the controller to primary.
    bool standby{false};
    /// Storage backend every snapshot/WAL byte routes through; null
    /// selects the process-wide PosixVfs. The caller keeps it alive for
    /// the controller's lifetime (the fault tests pass the in-memory
    /// disk of src/serve/faults/ here).
    Vfs* vfs{nullptr};
    /// Bounded-retry policy for transient storage errors on the WAL
    /// commit and snapshot paths.
    StorageRetryPolicy storage_retry{};
};

/// α of the default checkpoint trigger: a controller rotates once the
/// WAL bytes since its snapshot reach this multiple of the snapshot's
/// encoded bytes (the snapshot it last wrote or loaded; before the first,
/// the size the first will have). Replay after a restart then reads at
/// most about α snapshots' worth of WAL.
inline constexpr double kCheckpointWalRatio = 1.6;

/// While degraded, every this-many-th refused operation probes storage
/// recovery (WAL tail repair + a full checkpoint rotation as the
/// writability proof); try_recover_storage() probes on demand.
inline constexpr std::size_t kDegradedProbeEvery = 16;

/// Which side of a replicated pair this controller currently is.
enum class ControllerRole : std::uint8_t {
    kPrimary,  ///< decides requests itself (submit/pump/drain)
    kStandby,  ///< applies shipped records only (apply_replicated)
};

/// Where the current WAL generation durably ends — the shipper's view of
/// what may be replicated. Taken atomically under the controller lock.
struct WalPosition {
    std::uint64_t generation{0};
    /// Records committed to the current generation.
    std::uint64_t records{0};
    /// Committed bytes of the current generation file (header included);
    /// bytes beyond this are staged or in-flight and must not be shipped.
    std::uint64_t durable_bytes{0};
};

/// What the constructor's recovery pass found on disk. A nonzero
/// torn_tail_bytes is the operator-visible signal that a crash tore the
/// final append and recovery truncated it (previously silent).
struct RecoveryStats {
    bool recovered_snapshot{false};  ///< a snapshot was loaded
    bool recovered_wal{false};       ///< a WAL existed and was replayed
    std::uint64_t wal_records_replayed{0};
    std::uint64_t torn_tail_bytes{0};
    std::uint64_t torn_tail_records{0};
};

/// Outcome of submitting one request to the stream.
enum class SubmitResult {
    kQueued,          ///< accepted into the admission queue
    kShedIncoming,    ///< queue full and the incoming request paid least
    kShedQueued,      ///< queue full; a cheaper queued request was evicted
    kAlreadyCovered,  ///< this seq's outcome is already durable (replay)
};

/// One decided request, as returned by pump().
struct ProcessedOutcome {
    std::uint64_t seq{0};
    workload::Request request;
    core::Decision decision;
};

class AdmissionController {
  public:
    /// Binds to `instance` (kept alive by the caller) under `scheme`.
    /// If `config.data_dir` already holds a snapshot and/or WAL, the
    /// constructor recovers from them (replaying the WAL as described
    /// above); otherwise it starts fresh and creates generation-0 files.
    AdmissionController(const core::Instance& instance, core::Scheme scheme,
                        ServeConfig config);

    AdmissionController(const AdmissionController&) = delete;
    AdmissionController& operator=(const AdmissionController&) = delete;

    /// Feeds one request into the stream. `seq` is the request's position
    /// in the stream; submit seqs in increasing order (covered seqs may be
    /// replayed in any order and are skipped). Throws
    /// std::invalid_argument, before anything is queued or logged, for a
    /// request core::validate_request rejects.
    SubmitResult submit(std::uint64_t seq, const workload::Request& request)
        VNFR_EXCLUDES(mu_);

    /// Decides up to `max_requests` queued requests in FIFO order as one
    /// WAL commit group (one write + one fdatasync for the batch), applies
    /// the outcomes, then checks the checkpoint trigger once. Returns the
    /// decided batch — also when that checkpoint fails: the batch is
    /// durable by then, so the controller degrades without throwing and
    /// the next call refuses.
    std::vector<ProcessedOutcome> pump(std::size_t max_requests) VNFR_EXCLUDES(mu_);

    /// pump() with an unbounded batch: the whole queue as one group.
    std::vector<ProcessedOutcome> drain() VNFR_EXCLUDES(mu_);

    /// Takes a snapshot now and rotates to a fresh WAL generation.
    void checkpoint() VNFR_EXCLUDES(mu_);

    /// Standby role only: durably appends one record shipped from the
    /// primary to this controller's own WAL (fdatasync before anything
    /// becomes observable), then applies it exactly like recovery replay —
    /// decisions are re-executed and cross-checked, so primary/standby
    /// divergence dies as CorruptStateError instead of propagating.
    /// Returns false (and does nothing) when `rec.seq` is already covered,
    /// which makes retransmitted and disk-replayed records idempotent.
    /// Records must arrive in stream order, the same order the primary
    /// logged them. Checkpoints on the configured cadence; a failed
    /// checkpoint degrades without throwing, as in pump().
    bool apply_replicated(const WalRecord& rec) VNFR_EXCLUDES(mu_);

    /// Flips a standby to primary. Callers must make the caught-up state
    /// durable first (checkpoint()) — the replication layer's promotion
    /// path enforces that ordering statically (vnfr-asa
    /// replication-promote-checkpoint). Idempotent on a primary.
    void mark_promoted() VNFR_EXCLUDES(mu_);

    [[nodiscard]] ControllerRole role() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return role_;
    }

    /// Atomic snapshot of the durable end of the current WAL generation.
    [[nodiscard]] WalPosition wal_position() const VNFR_EXCLUDES(mu_);

    /// Unlinks retained WAL generations strictly below `generation`
    /// (never the current one). Only meaningful with retain_wals; the
    /// shipper calls this with the standby's acknowledged generation —
    /// releasing anything un-acked would tear the shipped stream.
    void release_wals_below(std::uint64_t generation) VNFR_EXCLUDES(mu_);

    /// What recovery found on disk at construction time.
    [[nodiscard]] RecoveryStats recovery_stats() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return recovery_stats_;
    }

    [[nodiscard]] ServeMetrics metrics() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return metrics_;
    }
    [[nodiscard]] std::size_t queue_size() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return queue_.size();
    }
    /// Every admitted request in stream order: the durable ledger prefix,
    /// read and parsed strictly from storage, then the admissions since
    /// the last rotation. Throws CorruptStateError (ledger path and
    /// offset) when the prefix is damaged.
    [[nodiscard]] std::vector<AdmittedRecord> admitted_records() const VNFR_EXCLUDES(mu_);
    /// Smallest stream seq whose outcome is not yet durable; after a
    /// crash, resubmit from here.
    [[nodiscard]] std::uint64_t resume_cursor() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return covered_watermark_;
    }
    [[nodiscard]] bool is_covered(std::uint64_t seq) const VNFR_EXCLUDES(mu_);
    /// Records appended to the current WAL generation (resets at
    /// checkpoint).
    [[nodiscard]] std::uint64_t wal_records() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return wal_records_;
    }
    [[nodiscard]] std::uint64_t wal_generation() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return wal_seq_;
    }
    [[nodiscard]] core::Scheme scheme() const { return scheme_; }

    /// FNV-1a digest over the complete logical state: scheme, counters,
    /// revenue bits, dual-price bits, usage bits, coverage, and the
    /// admitted ledger. Two controllers with equal digests decide every
    /// future request identically. Streams the durable ledger prefix from
    /// storage as admitted_records() does, with the same CorruptStateError
    /// on a damaged prefix.
    [[nodiscard]] std::uint64_t state_digest() const VNFR_EXCLUDES(mu_);

    /// Shape digest binding persisted files to this instance + scheme.
    [[nodiscard]] std::uint64_t config_digest() const { return config_digest_; }

    /// The storage backend this controller routes all durable I/O
    /// through (immutable after construction).
    [[nodiscard]] Vfs& vfs() const { return *vfs_; }

    [[nodiscard]] StorageHealth storage_health() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return health_;
    }

    /// Human-readable cause of the current degraded mode (empty when
    /// healthy).
    [[nodiscard]] std::string degraded_reason() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return degraded_reason_;
    }

    [[nodiscard]] StorageStats storage_stats() const VNFR_EXCLUDES(mu_);

    /// Attempts to leave degraded mode now: repairs the WAL tail (a
    /// failed commit may have left un-synced garbage past the durable
    /// prefix) and proves storage writability with a full checkpoint
    /// rotation. Returns true when the controller is healthy afterwards.
    /// Never throws on a still-broken disk — the probe just fails.
    bool try_recover_storage() VNFR_EXCLUDES(mu_);

  private:
    struct QueueItem {
        std::uint64_t seq;
        workload::Request request;
    };

    /// Heap entry for O(log n) shed-victim selection. The heap orders by
    /// (payment ascending, seq descending): the top is the queued request
    /// the overload guard would evict first. Entries are not removed when
    /// their request leaves the queue (pumped or evicted); stale entries
    /// are skipped lazily and the heap is rebuilt when it grows well past
    /// the live queue.
    struct ShedCandidate {
        double payment;
        std::uint64_t seq;
    };
    struct ShedVictimOrder {
        bool operator()(const ShedCandidate& a, const ShedCandidate& b) const {
            // std::priority_queue keeps the comparator's maximum on top;
            // "greater" here means "worthier victim".
            if (a.payment != b.payment) return a.payment > b.payment;
            return a.seq < b.seq;
        }
    };

    void recover() VNFR_REQUIRES(mu_);
    void replay_record(const WalRecord& rec, const std::string& path)
        VNFR_REQUIRES(mu_);
    void mark_covered(std::uint64_t seq) VNFR_REQUIRES(mu_);
    [[nodiscard]] bool is_covered_locked(std::uint64_t seq) const VNFR_REQUIRES(mu_);
    void append_wal(const WalRecord& rec) VNFR_REQUIRES(mu_);
    void apply_decision(std::uint64_t seq, const workload::Request& request,
                        const core::Decision& decision) VNFR_REQUIRES(mu_);
    void shed(const QueueItem& victim) VNFR_REQUIRES(mu_);
    /// Drops stale heap entries once the heap is far larger than the live
    /// queue (amortized O(1) per queue operation).
    void prune_shed_heap() VNFR_REQUIRES(mu_);
    std::vector<ProcessedOutcome> pump_locked(std::size_t max_requests)
        VNFR_REQUIRES(mu_);
    /// rotate_checkpoint_locked; on a storage error degrades and returns
    /// false instead of throwing.
    [[nodiscard]] bool checkpoint_locked() VNFR_REQUIRES(mu_);
    /// The one checkpoint trigger of pump and apply_replicated:
    /// checkpoint_every records when set, else kCheckpointWalRatio x
    /// snapshot_bytes_ WAL bytes.
    [[nodiscard]] bool rotation_due_locked() const VNFR_REQUIRES(mu_);
    /// The live state as a snapshot (wal_seq and ledger_bytes left 0).
    [[nodiscard]] SnapshotView snapshot_view_locked(
        const core::SchedulerState& state,
        std::span<const std::uint64_t> covered_sparse) const VNFR_REQUIRES(mu_);
    /// Hands every admitted record to `on_record` in stream order: the
    /// durable ledger prefix from storage, then admitted_.
    void for_each_admitted_locked(const std::function<void(AdmittedRecord&)>& on_record) const
        VNFR_REQUIRES(mu_);
    /// The raw rotation (append the new admissions to the ledger, create
    /// next gen, save a snapshot of the live state referencing both,
    /// retire old gen), which also moves the rollback base up to the
    /// checkpointed state. Throws VfsError on
    /// storage failure — callers decide whether that degrades the
    /// controller (checkpoint_locked) or just fails a recovery probe
    /// (try_recover_locked).
    void rotate_checkpoint_locked() VNFR_REQUIRES(mu_);
    /// Returns the scheduler to the state of the last applied decision,
    /// dropping whatever an un-committed pump decided since: imports
    /// rollback_base_ and re-decides decided_since_base_ in order.
    void rollback_scheduler_locked() VNFR_REQUIRES(mu_);
    /// Enters degraded read-only mode.
    void degrade_locked(const char* what, const VfsError& err) VNFR_REQUIRES(mu_);
    /// degrade_locked, then throws StorageDegradedError.
    [[noreturn]] void enter_degraded_locked(const char* what, const VfsError& err)
        VNFR_REQUIRES(mu_);
    /// Throws StorageDegradedError when degraded (after counting the
    /// refusal and, on cadence, probing recovery).
    void require_storage_healthy_locked(const char* op) VNFR_REQUIRES(mu_);
    [[nodiscard]] bool try_recover_locked() VNFR_REQUIRES(mu_);
    [[nodiscard]] std::string snapshot_path() const;
    [[nodiscard]] std::string ledger_path() const;
    /// Removes WAL files recovery must not see again: generations above
    /// the current one always (half-created rotation leftovers), and with
    /// retain_wals off, everything but the current generation.
    void remove_stale_wals() const VNFR_REQUIRES(mu_);
    void require_primary(const char* op) const VNFR_REQUIRES(mu_);

    // Immutable after construction (no guard needed).
    const core::Instance& instance_;
    core::Scheme scheme_;
    ServeConfig config_;
    std::uint64_t config_digest_{0};
    /// Resolved storage backend (config_.vfs or the PosixVfs).
    Vfs* vfs_{nullptr};

    /// One lock for all mutable state: admissions are serialized end to
    /// end (decide -> WAL append -> apply), which is exactly the ordering
    /// the recovery proof needs. mutable so const accessors can lock.
    mutable common::Mutex mu_;

    std::unique_ptr<core::OnlineScheduler> scheduler_ VNFR_GUARDED_BY(mu_);
    /// Rollback point for a failed group commit: the scheduler state as of
    /// the last successful rotation (or as recovery loaded it), and every
    /// request applied as a decision since then, in stream order. At most
    /// one trigger's worth of records plus one pump batch, since the
    /// trigger is checked after every pump and each rotation resets both. decide() is deterministic, so re-deciding
    /// the list from the base reproduces the live state bit for bit.
    core::SchedulerState rollback_base_ VNFR_GUARDED_BY(mu_);
    std::vector<workload::Request> decided_since_base_ VNFR_GUARDED_BY(mu_);
    /// Admission queue keyed by stream seq — iteration order is FIFO
    /// because seqs are submitted in increasing order.
    std::map<std::uint64_t, workload::Request> queue_ VNFR_GUARDED_BY(mu_);
    /// Lazy min-payment heap over queue_ for O(log n) shedding.
    std::priority_queue<ShedCandidate, std::vector<ShedCandidate>, ShedVictimOrder>
        shed_heap_ VNFR_GUARDED_BY(mu_);
    ServeMetrics metrics_ VNFR_GUARDED_BY(mu_);
    /// Admissions since the last rotation (for a version-1 snapshot, its
    /// inline list too); a rotation appends them to the ledger and clears
    /// them, so this is never longer than one trigger's worth.
    std::vector<AdmittedRecord> admitted_ VNFR_GUARDED_BY(mu_);
    /// Appender over snapshot.ledger; empty until the first rotation
    /// creates the file, or recovery opens the one the snapshot names.
    std::optional<FramedFileWriter> ledger_ VNFR_GUARDED_BY(mu_);
    /// Records in the ledger's durable prefix, which ends at
    /// ledger_->durable_size(); they precede admitted_ in stream order.
    std::uint64_t ledger_records_ VNFR_GUARDED_BY(mu_) = 0;
    /// Encoded bytes of the snapshot last written or loaded (before the
    /// first, of the one it will write): the default trigger's S.
    std::uint64_t snapshot_bytes_ VNFR_GUARDED_BY(mu_) = 0;
    std::uint64_t covered_watermark_ VNFR_GUARDED_BY(mu_) = 0;
    std::set<std::uint64_t> covered_sparse_ VNFR_GUARDED_BY(mu_);

    std::uint64_t wal_seq_ VNFR_GUARDED_BY(mu_) = 0;
    /// Records in the current generation.
    std::uint64_t wal_records_ VNFR_GUARDED_BY(mu_) = 0;
    std::optional<WalWriter> wal_ VNFR_GUARDED_BY(mu_);
    /// Generations below this are known-unlinked (release_wals_below).
    std::uint64_t release_floor_ VNFR_GUARDED_BY(mu_) = 0;
    ControllerRole role_ VNFR_GUARDED_BY(mu_) = ControllerRole::kPrimary;
    RecoveryStats recovery_stats_ VNFR_GUARDED_BY(mu_);
    StorageHealth health_ VNFR_GUARDED_BY(mu_) = StorageHealth::kHealthy;
    std::string degraded_reason_ VNFR_GUARDED_BY(mu_);
    StorageStats storage_stats_ VNFR_GUARDED_BY(mu_);
};

/// The shape digest save/load validates against: cloudlet capacities and
/// reliabilities (bit patterns), horizon, catalog entries, and scheme.
[[nodiscard]] std::uint64_t instance_config_digest(const core::Instance& instance,
                                                   core::Scheme scheme);

}  // namespace vnfr::serve
