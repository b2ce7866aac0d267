// Group-commit WAL tests: stage/commit unit semantics, torn-group
// recovery, and the full crash matrix — cut the controller at EVERY
// mutating storage op (every record's write and fdatasync, batch
// boundaries and mid-batch alike, and every rotation op) for batch sizes
// {1, 4, 32} under both schemes and both crash kinds (process crash,
// torn-tail power cut), and require the recovered controller to match
// the uninterrupted baseline bit for bit.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/faults/disk_fault_study.hpp"
#include "serve/faults/faulty_vfs.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

std::string fresh_dir(const std::string& name) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

WalRecord decision_record(std::uint64_t seq, double payment) {
    WalRecord rec;
    rec.kind = WalRecordKind::kDecision;
    rec.seq = seq;
    rec.request = make_request(static_cast<std::int64_t>(seq), 0, 0.95, 0, 2, payment);
    rec.admitted = true;
    rec.sites = {core::Site{CloudletId{0}, 2}};
    return rec;
}

TEST(ServeGroupCommitWal, StagedRecordsStayInvisibleUntilCommit) {
    const std::string dir = fresh_dir("gc_stage");
    const std::string path = dir + "/wal-0.log";
    WalWriter writer = WalWriter::create(posix_vfs(), path, 0, 42);
    writer.stage(decision_record(0, 3.0));
    writer.stage(decision_record(1, 4.0));
    EXPECT_EQ(writer.staged_records(), 2u);
    // Nothing externalized yet: the file on disk is still just a header.
    EXPECT_TRUE(read_wal(posix_vfs(), path, WalReadMode::kStrict).records.empty());
    writer.commit();
    EXPECT_EQ(writer.staged_records(), 0u);
    const WalContents contents = read_wal(posix_vfs(), path, WalReadMode::kStrict);
    ASSERT_EQ(contents.records.size(), 2u);
    EXPECT_EQ(contents.records[0].seq, 0u);
    EXPECT_EQ(contents.records[1].seq, 1u);
}

TEST(ServeGroupCommitWal, AppendWhileStagedThrowsAndCommitIsIdempotent) {
    const std::string dir = fresh_dir("gc_mix");
    WalWriter writer = WalWriter::create(posix_vfs(), dir + "/wal-0.log", 0, 42);
    writer.commit();  // no-op on an empty stage
    writer.stage(decision_record(0, 1.0));
    EXPECT_THROW(writer.append(decision_record(1, 2.0)), std::logic_error);
    writer.commit();
    writer.commit();  // still a no-op
    const std::uint64_t at = writer.append(decision_record(1, 2.0));
    EXPECT_EQ(at,
              read_wal(posix_vfs(), writer.path(), WalReadMode::kStrict).records[1].file_offset);
}

TEST(ServeGroupCommitWal, StageReportsTheOffsetsCommitWillUse) {
    const std::string dir = fresh_dir("gc_offsets");
    const std::string path = dir + "/wal-0.log";
    WalWriter writer = WalWriter::create(posix_vfs(), path, 0, 42);
    const std::uint64_t first = writer.stage(decision_record(0, 1.0));
    const std::uint64_t second = writer.stage(decision_record(1, 2.0));
    EXPECT_LT(first, second);
    writer.commit();
    const WalContents contents = read_wal(posix_vfs(), path, WalReadMode::kStrict);
    ASSERT_EQ(contents.records.size(), 2u);
    EXPECT_EQ(contents.records[0].file_offset, first);
    EXPECT_EQ(contents.records[1].file_offset, second);
}

TEST(ServeGroupCommitWal, TornGroupWriteRecoversTheIntactPrefix) {
    // A crash during the single group write leaves whole records plus at
    // most one torn record at EOF — exactly what recover mode handles.
    const std::string dir = fresh_dir("gc_torn");
    const std::string path = dir + "/wal-0.log";
    {
        WalWriter writer = WalWriter::create(posix_vfs(), path, 0, 42);
        writer.stage(decision_record(0, 1.0));
        writer.stage(decision_record(1, 2.0));
        writer.stage(decision_record(2, 3.0));
        writer.commit();
    }
    const std::uint64_t full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 7);  // tear into record 2
    const WalContents contents = read_wal(posix_vfs(), path, WalReadMode::kRecover);
    ASSERT_EQ(contents.records.size(), 2u);
    EXPECT_GT(contents.bytes_discarded, 0u);
    EXPECT_EQ(contents.valid_size + contents.bytes_discarded, full - 7);
    // And the writer can resume on the clean prefix.
    WalWriter resumed = WalWriter::append_to(posix_vfs(), path, contents.valid_size);
    resumed.append(decision_record(2, 3.0));
    EXPECT_EQ(read_wal(posix_vfs(), path, WalReadMode::kStrict).records.size(), 3u);
}

// A FaultyVfs whose next write to the armed path lands only its first
// half and then fails transiently: the torn shape a commit's retry must
// cut back before it rewrites the group.
class ShortWriteOnceVfs : public FaultyVfs {
  public:
    void arm(std::string path) { armed_ = std::move(path); }

    void write_all(int fd, const std::string& path, std::string_view bytes) override {
        if (path != armed_) {
            FaultyVfs::write_all(fd, path, bytes);
            return;
        }
        armed_.clear();
        FaultyVfs::write_all(fd, path, bytes.substr(0, bytes.size() / 2));
        throw VfsError(path, "write", EIO, true);
    }

  private:
    std::string armed_;
};

TEST(ServeGroupCommitWal, ShortWriteIsCutBackBeforeTheRetry) {
    ShortWriteOnceVfs vfs;
    const std::string path = "/disk/wal-0.log";
    WalWriter writer = WalWriter::create(vfs, path, 0, 42);

    // A clean commit is one write and one fdatasync, nothing else.
    FaultyVfsStats before = vfs.stats();
    writer.append(decision_record(0, 1.0));
    EXPECT_EQ(vfs.stats().writes - before.writes, 1u);
    EXPECT_EQ(vfs.stats().syncs - before.syncs, 1u);
    EXPECT_EQ(vfs.stats().truncates - before.truncates, 0u);
    EXPECT_EQ(writer.transient_retries(), 0u);

    writer.stage(decision_record(1, 2.0));
    writer.stage(decision_record(2, 3.0));
    vfs.arm(path);
    before = vfs.stats();
    writer.commit();
    // Half the group landed, then: one backoff, the file cut back to the
    // durable prefix, the whole group rewritten and synced once.
    EXPECT_EQ(vfs.stats().writes - before.writes, 2u);
    EXPECT_EQ(vfs.stats().sleeps - before.sleeps, 1u);
    EXPECT_EQ(vfs.stats().truncates - before.truncates, 1u);
    EXPECT_EQ(vfs.stats().syncs - before.syncs, 1u);
    EXPECT_EQ(writer.transient_retries(), 1u);
    EXPECT_FALSE(writer.dirty());
    EXPECT_EQ(writer.durable_size(), vfs.read_file(path).size());

    // Each staged record is on disk exactly once.
    const WalContents contents = read_wal(vfs, path, WalReadMode::kStrict);
    ASSERT_EQ(contents.records.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(contents.records[i].seq, i);
}

core::Instance matrix_instance(std::size_t n) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const TimeSlot arrival = static_cast<TimeSlot>((i * 7) / n);
        const TimeSlot duration = 1 + static_cast<TimeSlot>(i % 3);
        const double payment = 1.0 + static_cast<double>((i * 11) % 17);
        reqs.push_back(make_request(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(i % 2),
                                    0.90 + 0.004 * static_cast<double>(i % 10), arrival,
                                    duration, payment));
    }
    return small_instance({0.98, 0.97, 0.99}, 10.0, 10, std::move(reqs));
}

// One pump is one commit group: whatever its batch, it reaches the WAL
// with one write and one fdatasync, and drain() is the same path with an
// unbounded batch.
ServeConfig counting_config(FaultyVfs& vfs) {
    ServeConfig cfg;
    cfg.data_dir = "/disk";
    cfg.vfs = &vfs;
    cfg.checkpoint_every = 1000;  // no rotation inside the counted span
    return cfg;
}

TEST(ServeGroupCommitWal, APumpIsOneWriteAndOneFdatasync) {
    const core::Instance inst = matrix_instance(8);
    for (const std::size_t k : {std::size_t{1}, std::size_t{5}}) {
        SCOPED_TRACE("pump(" + std::to_string(k) + ")");
        FaultyVfs vfs;
        AdmissionController controller(inst, core::Scheme::kOnsite, counting_config(vfs));
        for (std::size_t i = 0; i < inst.requests.size(); ++i) {
            ASSERT_EQ(controller.submit(i, inst.requests[i]), SubmitResult::kQueued);
        }
        const FaultyVfsStats before = vfs.stats();
        EXPECT_EQ(controller.pump(k).size(), k);
        EXPECT_EQ(vfs.stats().writes - before.writes, 1u);
        EXPECT_EQ(vfs.stats().syncs - before.syncs, 1u);
        EXPECT_EQ(controller.wal_records(), k);
    }
}

TEST(ServeGroupCommitWal, ADrainIsOneWriteAndOneFdatasync) {
    const core::Instance inst = matrix_instance(5);
    FaultyVfs vfs;
    AdmissionController controller(inst, core::Scheme::kOnsite, counting_config(vfs));
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        ASSERT_EQ(controller.submit(i, inst.requests[i]), SubmitResult::kQueued);
    }
    const FaultyVfsStats before = vfs.stats();
    EXPECT_EQ(controller.drain().size(), 5u);
    EXPECT_EQ(vfs.stats().writes - before.writes, 1u);
    EXPECT_EQ(vfs.stats().syncs - before.syncs, 1u);
    EXPECT_EQ(controller.wal_records(), 5u);
    EXPECT_EQ(controller.queue_size(), 0u);
}

std::string describe(const CutTrial& trial) {
    return std::string(cut_kind_name(trial.kind)) + " at op " +
           std::to_string(trial.cut_at_op) + " (" + trial.cut_op + " " +
           trial.cut_path + ")";
}

/// The study at one pump batch with no trials: just the baseline.
DiskFaultStudyConfig matrix_config(core::Scheme scheme, std::size_t batch) {
    DiskFaultStudyConfig cfg;
    cfg.scheme = scheme;
    cfg.master_seed = 0xBA7C4ull;
    cfg.power_cut_points = 0;
    cfg.transient_trials = 0;
    cfg.degraded_trials = 0;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.batch = batch;
    return cfg;
}

void expect_matrix_ok(core::Scheme scheme, std::size_t batch) {
    DiskFaultStudyConfig cfg = matrix_config(scheme, batch);
    cfg.exhaustive_power_cuts = true;  // every op: boundary + mid-batch
    const DiskFaultStudyResult result =
        run_disk_fault_study(matrix_instance(40), cfg);
    EXPECT_TRUE(result.ok()) << "failed trials: " << result.failed_cut_trials;
    ASSERT_EQ(result.cut_trials.size(),
              std::size(kCutTrialKinds) * result.baseline_mutating_ops);
    std::size_t crashes = 0;
    std::size_t record_syncs = 0;
    std::size_t torn = 0;
    for (const CutTrial& trial : result.cut_trials) {
        EXPECT_TRUE(trial.ok()) << describe(trial);
        if (trial.kind == CutKind::kProcessCrash) ++crashes;
        if (trial.cut_op == "fdatasync") ++record_syncs;
        if (trial.recovered_torn_tail_bytes > 0) ++torn;
    }
    // The matrix really covered both kinds, every commit's fdatasync,
    // and torn tails.
    EXPECT_EQ(crashes, result.cut_trials.size() / 2);
    EXPECT_GT(record_syncs, 0u);
    EXPECT_GT(torn, 0u);
}

TEST(ServeGroupCommitChaos, CrashMatrixBatch1) {
    expect_matrix_ok(core::Scheme::kOnsite, 1);
    expect_matrix_ok(core::Scheme::kOffsite, 1);
}

TEST(ServeGroupCommitChaos, CrashMatrixBatch4) {
    expect_matrix_ok(core::Scheme::kOnsite, 4);
}

TEST(ServeGroupCommitChaos, CrashMatrixBatch32) {
    expect_matrix_ok(core::Scheme::kOnsite, 32);
    expect_matrix_ok(core::Scheme::kOffsite, 32);
}

TEST(ServeGroupCommitChaos, CrashMatrixBatch4Offsite) {
    expect_matrix_ok(core::Scheme::kOffsite, 4);
}

TEST(ServeGroupCommitChaos, GroupSizeNeverChangesTheFinalState) {
    // The pump batch only changes durability batching; the decided stream
    // (and therefore the digest, revenue, and admitted set) is invariant.
    for (const core::Scheme scheme :
         {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        const core::Instance inst = matrix_instance(40);
        const DiskFaultStudyResult b1 =
            run_disk_fault_study(inst, matrix_config(scheme, 1));
        const DiskFaultStudyResult b4 =
            run_disk_fault_study(inst, matrix_config(scheme, 4));
        const DiskFaultStudyResult b32 =
            run_disk_fault_study(inst, matrix_config(scheme, 32));
        EXPECT_EQ(b1.baseline_digest, b4.baseline_digest);
        EXPECT_EQ(b1.baseline_digest, b32.baseline_digest);
        EXPECT_EQ(b1.baseline_metrics.revenue, b32.baseline_metrics.revenue);
        EXPECT_EQ(b1.baseline_metrics.shed_revenue,
                  b32.baseline_metrics.shed_revenue);
        EXPECT_TRUE(b32.ok());
    }
}

// ------------------------------------------------------ rollback equivalence
//
// A failed group commit rolls the scheduler back by importing the state of
// the last rotation (or recovery) and re-deciding every request applied
// since. These tests fail a commit with an EIO that never clears at each
// distinct position of that rollback list and require (a) the digest right
// after the failure to equal the one before it and (b) the rest of the
// stream, after storage recovery, to end exactly where a never-failed run
// ends.

/// Requests spread over a long horizon, with capacity scaled to the stream
/// so that admissions — which move the dual prices and the usage table —
/// and rejections both continue across the whole stream.
core::Instance rollback_instance(std::size_t n) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto arrival = static_cast<TimeSlot>((i * 37) / n);
        const TimeSlot duration = 1 + static_cast<TimeSlot>(i % 4);
        const double payment = 1.0 + static_cast<double>((i * 13) % 19);
        reqs.push_back(make_request(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(i % 2),
                                    0.90 + 0.008 * static_cast<double>(i % 10), arrival,
                                    duration, payment));
    }
    const double capacity = static_cast<double>(n) / 16.0;
    return small_instance({0.98, 0.97, 0.99}, capacity, 40, std::move(reqs));
}

enum class FailAt {
    kFirstAfterReplay,        ///< first commit of a controller that replayed a WAL
    kFirstAfterRotation,      ///< first commit of a fresh generation
    kMidGeneration,           ///< neither first nor last in its generation
    kLastBeforeRotation,      ///< the commit that would trigger a rotation
    kFirstOnPromotedStandby,  ///< first pump after apply_replicated + promotion
};

/// Four commits of `group` records per WAL generation. The tests stay
/// below kDegradedProbeEvery refusals, so storage recovers only when a
/// test calls try_recover_storage().
ServeConfig rollback_config(FaultyVfs& vfs, std::size_t group, std::size_t requests) {
    ServeConfig cfg;
    cfg.data_dir = "/disk";
    cfg.vfs = &vfs;
    cfg.checkpoint_every = 4 * group;
    cfg.queue_capacity = requests;  // never shed
    return cfg;
}

/// Drives `inst` through one controller: each step submits the next
/// `group` requests and pumps them as one commit.
struct RollbackStream {
    const core::Instance& inst;
    std::size_t group;
    std::size_t next{0};

    std::vector<ProcessedOutcome> step(AdmissionController& controller) {
        for (std::size_t k = 0; k < group && next < inst.requests.size(); ++k, ++next) {
            EXPECT_EQ(controller.submit(next, inst.requests[next]), SubmitResult::kQueued);
        }
        return controller.pump(group);
    }
    void finish(AdmissionController& controller) {
        while (next < inst.requests.size() || controller.queue_size() > 0) step(controller);
    }
};

WalRecord logged_record(const ProcessedOutcome& outcome) {
    WalRecord rec;
    rec.kind = WalRecordKind::kDecision;
    rec.seq = outcome.seq;
    rec.request = outcome.request;
    rec.admitted = outcome.decision.admitted;
    rec.reject_reason = outcome.decision.reject_reason;
    if (rec.admitted) rec.sites = outcome.decision.placement.sites;
    return rec;
}

void check_rollback(FailAt at, core::Scheme scheme, std::size_t group) {
    const std::size_t n = 14 * group + 3;
    const core::Instance inst = rollback_instance(n);

    FaultyVfs clean;
    std::uint64_t baseline = 0;
    {
        AdmissionController controller(inst, scheme, rollback_config(clean, group, n));
        RollbackStream stream{inst, group};
        stream.finish(controller);
        baseline = controller.state_digest();
        // The stream keeps admitting and rejecting, so a wrong rollback
        // would show in the dual prices.
        ASSERT_GT(controller.metrics().admitted, n / 4);
        ASSERT_GT(controller.metrics().rejected, 0u);
    }

    FaultyVfs vfs;
    ServeConfig cfg = rollback_config(vfs, group, n);
    RollbackStream stream{inst, group};
    std::optional<AdmissionController> controller;
    switch (at) {
        case FailAt::kFirstAfterReplay: {
            // One rotation, then two commits left in the WAL for the
            // restarted controller to replay.
            controller.emplace(inst, scheme, cfg);
            for (int i = 0; i < 6; ++i) stream.step(*controller);
            controller.reset();
            controller.emplace(inst, scheme, cfg);
            ASSERT_EQ(controller->recovery_stats().wal_records_replayed, 2 * group);
            break;
        }
        case FailAt::kFirstAfterRotation:
            controller.emplace(inst, scheme, cfg);
            for (int i = 0; i < 8; ++i) stream.step(*controller);
            ASSERT_EQ(controller->wal_records(), 0u);
            break;
        case FailAt::kMidGeneration:
            controller.emplace(inst, scheme, cfg);
            for (int i = 0; i < 5; ++i) stream.step(*controller);
            ASSERT_EQ(controller->wal_records(), group);
            break;
        case FailAt::kLastBeforeRotation:
            controller.emplace(inst, scheme, cfg);
            for (int i = 0; i < 7; ++i) stream.step(*controller);
            ASSERT_EQ(controller->wal_records(), 3 * group);
            break;
        case FailAt::kFirstOnPromotedStandby: {
            // A primary on its own disk decides six commits; the standby
            // applies them (rotating once on its own cadence) and is
            // promoted with two commits' worth of records past its base.
            FaultyVfs primary_disk;
            AdmissionController primary(inst, scheme, rollback_config(primary_disk, group, n));
            ServeConfig standby_cfg = cfg;
            standby_cfg.standby = true;
            controller.emplace(inst, scheme, standby_cfg);
            for (int i = 0; i < 6; ++i) {
                for (const ProcessedOutcome& o : stream.step(primary)) {
                    ASSERT_TRUE(controller->apply_replicated(logged_record(o)));
                }
            }
            ASSERT_EQ(controller->state_digest(), primary.state_digest());
            ASSERT_EQ(controller->wal_records(), 2 * group);
            controller->mark_promoted();
            break;
        }
    }

    const std::uint64_t before = controller->state_digest();
    vfs.script_fault(VfsOp::kSync, 0, -1, EIO, /*transient=*/true);
    EXPECT_THROW(stream.step(*controller), StorageDegradedError);
    EXPECT_EQ(controller->storage_health(), StorageHealth::kDegraded);
    EXPECT_EQ(controller->state_digest(), before);

    vfs.clear_scripted_faults();
    ASSERT_TRUE(controller->try_recover_storage());
    stream.finish(*controller);
    EXPECT_EQ(controller->state_digest(), baseline);

    // The files left behind recover to the same state.
    controller.reset();
    cfg.standby = false;
    const AdmissionController restarted(inst, scheme, cfg);
    EXPECT_EQ(restarted.state_digest(), baseline);
}

void check_rollback_everywhere(FailAt at) {
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        for (const std::size_t group : {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
            SCOPED_TRACE(std::string(scheme == core::Scheme::kOnsite ? "onsite" : "offsite") +
                         ", batch " + std::to_string(group));
            check_rollback(at, scheme, group);
        }
    }
}

TEST(ServeGroupCommitRollback, FirstCommitAfterWalReplay) {
    check_rollback_everywhere(FailAt::kFirstAfterReplay);
}

TEST(ServeGroupCommitRollback, FirstCommitAfterRotation) {
    check_rollback_everywhere(FailAt::kFirstAfterRotation);
}

TEST(ServeGroupCommitRollback, CommitInTheMiddleOfAGeneration) {
    check_rollback_everywhere(FailAt::kMidGeneration);
}

TEST(ServeGroupCommitRollback, LastCommitBeforeRotation) {
    check_rollback_everywhere(FailAt::kLastBeforeRotation);
}

TEST(ServeGroupCommitRollback, FirstPumpOnAPromotedStandby) {
    check_rollback_everywhere(FailAt::kFirstOnPromotedStandby);
}

}  // namespace
}  // namespace vnfr::serve
