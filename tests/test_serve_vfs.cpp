// The Vfs layer itself: PosixVfs round-trips, FaultyVfs's page-cache
// model (durable vs cached bytes, power cuts, stale fds), scripted and
// seeded fault injection, the bounded-retry wrapper, and the failure
// atomicity of the write -> fsync -> rename -> dirsync publish path as
// exercised through WalWriter and the admission controller.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/faults/faulty_vfs.hpp"
#include "serve/wal_scrubber.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

constexpr const char* kDir = "/disk";

std::string at(const std::string& name) { return std::string(kDir) + "/" + name; }

// ---------------------------------------------------------------- FaultyVfs

TEST(ServeVfs, FaultyVfsRoundTripsThroughTheCache) {
    FaultyVfs vfs;
    const int fd = vfs.create_truncate(at("a"));
    vfs.write_all(fd, at("a"), "hello");
    EXPECT_EQ(vfs.read_file(at("a")), "hello");  // cache view, pre-sync
    vfs.fdatasync(fd, at("a"));
    vfs.close(fd);
    EXPECT_TRUE(vfs.file_exists(at("a")));
    EXPECT_EQ(vfs.read_file(at("a")), "hello");
    EXPECT_THROW((void)vfs.read_file(at("missing")), VfsError);
}

// The two crash kinds differ only in what the page cache keeps: a
// process crash keeps un-synced bytes and un-dirsynced names, a clean
// power cut drops both. Either way every pre-cut fd is stale.
TEST(ServeVfs, PowerCutDropsUnsyncedBytesAndUnsyncedNames) {
    for (const CutKind kind : {CutKind::kProcessCrash, CutKind::kPowerCutClean}) {
        SCOPED_TRACE(cut_kind_name(kind));
        const bool keeps_cache = kind == CutKind::kProcessCrash;
        FaultyVfs vfs;

        const int fd = vfs.create_truncate(at("wal"));
        vfs.write_all(fd, at("wal"), "durable");
        vfs.fdatasync(fd, at("wal"));
        vfs.fsync_parent_dir(at("wal"));  // name survives the cut
        vfs.write_all(fd, at("wal"), " volatile");

        const int never_synced = vfs.create_truncate(at("ghost"));
        vfs.write_all(never_synced, at("ghost"), "gone");

        vfs.cut(kind);

        EXPECT_EQ(vfs.read_file(at("wal")),
                  keeps_cache ? "durable volatile" : "durable");
        // The creation was never dirsynced.
        EXPECT_EQ(vfs.file_exists(at("ghost")), keeps_cache);
        // fds from before the cut are stale: writes through them must fail.
        EXPECT_THROW(vfs.write_all(fd, at("wal"), "x"), VfsError);
        EXPECT_THROW(vfs.write_all(never_synced, at("ghost"), "x"), VfsError);
        vfs.close(fd);  // tolerated
        vfs.close(never_synced);
        EXPECT_EQ(vfs.stats().cuts, 1u);
    }
}

TEST(ServeVfs, RenameIsNotDurableUntilTheParentDirIsSynced) {
    for (const CutKind kind : {CutKind::kProcessCrash, CutKind::kPowerCutClean}) {
        SCOPED_TRACE(cut_kind_name(kind));
        FaultyVfs vfs;

        auto put = [&vfs](const std::string& path, const std::string& bytes) {
            const int fd = vfs.create_truncate(path);
            vfs.write_all(fd, path, bytes);
            vfs.fsync(fd, path);
            vfs.close(fd);
        };
        put(at("target"), "old");
        vfs.fsync_parent_dir(at("target"));
        put(at("target.tmp"), "new");
        vfs.rename(at("target.tmp"), at("target"));
        EXPECT_EQ(vfs.read_file(at("target")), "new");  // visible in the cache

        // The rename never reached the directory: only a process crash,
        // which leaves the cache standing, keeps it.
        vfs.cut(kind);

        EXPECT_EQ(vfs.read_file(at("target")),
                  kind == CutKind::kProcessCrash ? "new" : "old");
    }
}

TEST(ServeVfs, ScriptedFaultsFireAfterTheirSkipCountThenClear) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kWrite, 1, 1, EIO, /*transient=*/true);
    const int fd = vfs.create_truncate(at("f"));
    vfs.write_all(fd, at("f"), "first");               // skipped
    EXPECT_THROW(vfs.write_all(fd, at("f"), "second"), VfsError);  // fires
    vfs.write_all(fd, at("f"), "third");               // count exhausted
    vfs.clear_scripted_faults();
    vfs.write_all(fd, at("f"), "fourth");
    vfs.close(fd);
    EXPECT_EQ(vfs.stats().injected_errors, 1u);
}

TEST(ServeVfs, UnlinkIsIdempotentAndListDirIsSorted) {
    FaultyVfs vfs;
    for (const char* name : {"b", "a", "c"}) {
        const int fd = vfs.create_truncate(at(name));
        vfs.close(fd);
    }
    vfs.unlink(at("b"));
    vfs.unlink(at("b"));  // missing file is not an error
    const std::vector<std::string> names = vfs.list_dir(kDir);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "c");
}

// ------------------------------------------------------- retries & guards

TEST(ServeVfs, RetriesAbsorbTransientBurstsWithinTheBudget) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kWrite, 0, 2, EIO, /*transient=*/true);
    const int fd = vfs.create_truncate(at("f"));
    StorageRetryPolicy policy;
    policy.max_attempts = 4;
    std::uint64_t retries = 0;
    with_storage_retries(
        vfs, policy, [&] { vfs.write_all(fd, at("f"), "payload"); }, &retries);
    vfs.close(fd);
    EXPECT_EQ(retries, 2u);
    EXPECT_EQ(vfs.read_file(at("f")), "payload");
}

TEST(ServeVfs, RetriesGiveUpImmediatelyOnPersistentErrors) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kWrite, 0, -1, ENOSPC, /*transient=*/false);
    const int fd = vfs.create_truncate(at("f"));
    StorageRetryPolicy policy;
    std::uint64_t retries = 0;
    EXPECT_THROW(with_storage_retries(
                     vfs, policy, [&] { vfs.write_all(fd, at("f"), "x"); },
                     &retries),
                 VfsError);
    vfs.close(fd);
    EXPECT_EQ(retries, 0u);  // ENOSPC is not worth a single retry
    EXPECT_EQ(vfs.stats().injected_errors, 1u);
}

TEST(ServeVfs, FdGuardClosesUnlessReleased) {
    FaultyVfs vfs;
    int raw = -1;
    {
        VfsFdGuard guard(vfs, vfs.create_truncate(at("g")));
        vfs.write_all(guard.get(), at("g"), "x");
        raw = guard.release();
    }
    // Released: the fd is still live after the guard died.
    vfs.write_all(raw, at("g"), "y");
    vfs.close(raw);
    {
        VfsFdGuard guard(vfs, vfs.create_truncate(at("h")));
        raw = guard.get();
    }
    // Not released: the guard closed it; further writes must fail.
    EXPECT_THROW(vfs.write_all(raw, at("h"), "z"), VfsError);
}

// ------------------------------------------- atomic publish failure modes

TEST(ServeVfs, RenameFailureMidAtomicWriteLeavesNoTempAndNoTarget) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kRename, 0, -1, EIO, /*transient=*/false);
    EXPECT_THROW((void)WalWriter::create(vfs, at("wal-0.log"), 0, 7), VfsError);
    EXPECT_FALSE(vfs.file_exists(at("wal-0.log")));
    // The temp file was unlinked on the failure path.
    EXPECT_TRUE(vfs.list_dir(kDir).empty());
}

// A simulated process death is not a VfsError, so atomic_write_file runs
// no cleanup for it, as a real crash runs none: the temp file stays in
// the page cache for the next write of the path to truncate.
TEST(ServeVfs, CrashMidAtomicWriteLeavesTempAndUnlinksNothing) {
    // The publish's mutating ops: create, write, fsync, rename, dirsync.
    const std::pair<std::uint64_t, std::string> cuts[] = {{3, "fsync"}, {4, "rename"}};
    for (const auto& [cut_at, op] : cuts) {
        SCOPED_TRACE(op);
        DiskFaultPlan plan;
        plan.cut_at_op = cut_at;
        plan.cut_kind = CutKind::kProcessCrash;
        FaultyVfs vfs(plan);
        try {
            atomic_write_file(vfs, at("snapshot.bin"), "payload");
            FAIL() << "expected CrashInjected";
        } catch (const CrashInjected& crash) {
            EXPECT_EQ(crash.op_index(), cut_at);
            EXPECT_EQ(crash.op(), op);
            EXPECT_EQ(crash.path(), at("snapshot.bin.tmp"));
        }
        EXPECT_TRUE(vfs.file_exists(at("snapshot.bin.tmp")));
        EXPECT_FALSE(vfs.file_exists(at("snapshot.bin")));
        EXPECT_EQ(vfs.stats().unlinks, 0u);
    }
}

TEST(ServeVfs, TransientRenameFailureIsRetriedToSuccess) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kRename, 0, 1, EIO, /*transient=*/true);
    WalWriter wal = WalWriter::create(vfs, at("wal-0.log"), 0, 7);
    wal.close();
    EXPECT_TRUE(vfs.file_exists(at("wal-0.log")));
    EXPECT_TRUE(read_wal(vfs, at("wal-0.log"), WalReadMode::kStrict)
                    .records.empty());
}

TEST(ServeVfs, FsyncParentDirFailureFailsThePublish) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kDirSync, 0, -1, EIO, /*transient=*/false);
    EXPECT_THROW((void)WalWriter::create(vfs, at("wal-0.log"), 0, 7), VfsError);
}

// ------------------------------------------------- controller-level paths

core::Instance tiny_instance(std::size_t n) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        reqs.push_back(make_request(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(i % 2),
                                    0.90 + 0.004 * static_cast<double>(i % 10),
                                    static_cast<TimeSlot>((i * 7) / n),
                                    1 + static_cast<TimeSlot>(i % 3),
                                    1.0 + static_cast<double>((i * 11) % 17)));
    }
    return small_instance({0.98, 0.97, 0.99}, 10.0, 10, std::move(reqs));
}

TEST(ServeVfs, CheckpointRotationUnderEnospcDegradesThenRecovers) {
    const core::Instance inst = tiny_instance(12);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 1000;  // rotate only on explicit checkpoint()
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        controller.submit(i, inst.requests[i]);
        controller.drain();
    }
    const std::uint64_t digest = controller.state_digest();
    const auto admitted = controller.admitted_records();

    // The disk fills up right as the rotation starts.
    disk.script_fault(VfsOp::kWrite, 0, -1, ENOSPC, /*transient=*/false);
    EXPECT_THROW(controller.checkpoint(), StorageDegradedError);
    EXPECT_EQ(controller.storage_health(), StorageHealth::kDegraded);
    EXPECT_FALSE(controller.degraded_reason().empty());

    // Degraded mode refuses loudly but keeps serving admitted state.
    EXPECT_THROW(controller.submit(inst.requests.size(),
                                   inst.requests.front()),
                 StorageDegradedError);
    EXPECT_EQ(controller.state_digest(), digest);
    EXPECT_EQ(controller.admitted_records().size(), admitted.size());
    EXPECT_GE(controller.storage_stats().degraded_entries, 1u);
    EXPECT_GE(controller.storage_stats().degraded_refusals, 1u);

    // Recovery fails while the disk is still full...
    EXPECT_FALSE(controller.try_recover_storage());
    // ...and succeeds (with a full rotation as the writability proof)
    // once space frees up.
    disk.clear_scripted_faults();
    EXPECT_TRUE(controller.try_recover_storage());
    EXPECT_EQ(controller.storage_health(), StorageHealth::kHealthy);
    EXPECT_EQ(controller.storage_stats().recoveries, 1u);
    EXPECT_EQ(controller.state_digest(), digest);

    // Back in business: the next submit is accepted and durably logged.
    controller.submit(inst.requests.size(), inst.requests.front());
    controller.drain();
    EXPECT_EQ(controller.metrics().processed + controller.metrics().shed,
              inst.requests.size() + 1);
}

TEST(ServeVfs, DrainRefusesWhileDegradedLikePump) {
    const core::Instance inst = tiny_instance(12);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    for (std::size_t i = 0; i < 4; ++i) controller.submit(i, inst.requests[i]);

    // The group commit hits a full disk: the controller degrades with the
    // requests still queued.
    disk.script_fault(VfsOp::kWrite, 0, -1, ENOSPC, /*transient=*/false);
    EXPECT_THROW(controller.pump(1), StorageDegradedError);
    const std::uint64_t digest = controller.state_digest();
    ASSERT_EQ(controller.storage_stats().degraded_entries, 1u);

    // drain() is refused, not re-run into the still-full disk...
    EXPECT_THROW(controller.drain(), StorageDegradedError);
    EXPECT_EQ(controller.storage_stats().degraded_entries, 1u);
    // ...and stays refused once the disk has space again, because only a
    // successful rotation proves storage writable.
    disk.clear_scripted_faults();
    EXPECT_THROW(controller.drain(), StorageDegradedError);
    EXPECT_EQ(controller.storage_stats().degraded_entries, 1u);
    EXPECT_EQ(controller.storage_stats().degraded_refusals, 2u);
    EXPECT_EQ(controller.metrics().processed, 0u);
    EXPECT_EQ(controller.queue_size(), 4u);
    EXPECT_EQ(controller.state_digest(), digest);

    ASSERT_TRUE(controller.try_recover_storage());
    EXPECT_EQ(controller.drain().size(), 4u);
    EXPECT_EQ(controller.metrics().processed, 4u);
}

// A rotation that fails after a successful group commit must not swallow
// the batch: its outcomes are durable, applied and covered, so pump hands
// them back, and only the next call is refused.
TEST(ServeVfs, PumpReturnsADurableBatchWhenTheRotationAfterItFails) {
    const core::Instance inst = tiny_instance(12);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 2;  // the commit of pump(2) triggers a rotation
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    controller.submit(0, inst.requests[0]);
    controller.submit(1, inst.requests[1]);

    // The commit appends to the open WAL; only the rotation creates files.
    disk.script_fault(VfsOp::kCreate, 0, -1, ENOSPC, /*transient=*/false);
    std::vector<ProcessedOutcome> outcomes;
    ASSERT_NO_THROW(outcomes = controller.pump(2));
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].seq, 0u);
    EXPECT_EQ(outcomes[1].seq, 1u);
    EXPECT_EQ(controller.metrics().processed, 2u);
    EXPECT_EQ(controller.queue_size(), 0u);
    EXPECT_EQ(controller.storage_health(), StorageHealth::kDegraded);
    EXPECT_EQ(controller.storage_stats().degraded_entries, 1u);
    EXPECT_NE(controller.degraded_reason().find("checkpoint rotation"), std::string::npos);

    // The next call is refused, as after any degradation.
    EXPECT_THROW((void)controller.pump(2), StorageDegradedError);
    EXPECT_FALSE(controller.try_recover_storage());

    disk.clear_scripted_faults();
    EXPECT_TRUE(controller.try_recover_storage());
    EXPECT_EQ(controller.storage_health(), StorageHealth::kHealthy);
    // Both seqs stayed covered: a resubmission is not decided twice.
    EXPECT_EQ(controller.submit(0, inst.requests[0]), SubmitResult::kAlreadyCovered);
    EXPECT_EQ(controller.submit(1, inst.requests[1]), SubmitResult::kAlreadyCovered);
    controller.submit(2, inst.requests[2]);
    EXPECT_EQ(controller.drain().size(), 1u);
    EXPECT_EQ(controller.metrics().processed, 3u);
}

TEST(ServeVfs, ScrubberDetectsASingleFlippedBitInARetainedGeneration) {
    const core::Instance inst = tiny_instance(24);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 4;  // several retained generations
    cfg.retain_wals = true;
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        controller.submit(i, inst.requests[i]);
        controller.drain();
    }
    ASSERT_TRUE(scrub_data_dir(disk, kDir).clean());

    // Flip one bit inside the record region of the oldest generation.
    std::string oldest;
    for (const std::string& name : disk.list_dir(kDir)) {
        if (name.starts_with("wal-") && name.ends_with(".log")) {
            oldest = at(name);
            break;
        }
    }
    ASSERT_FALSE(oldest.empty());
    ASSERT_GT(disk.read_file(oldest).size(), kWalHeaderSize + 8);
    disk.corrupt_durable_byte(oldest, kWalHeaderSize + 5, 0x04);

    const ScrubReport report = scrub_data_dir(disk, kDir);
    EXPECT_FALSE(report.clean());
    ASSERT_FALSE(report.findings.empty());
    EXPECT_EQ(report.findings.front().file, oldest);

    // Un-flip: the scrub is clean again (the report was not sticky).
    disk.corrupt_durable_byte(oldest, kWalHeaderSize + 5, 0x04);
    EXPECT_TRUE(scrub_data_dir(disk, kDir).clean());
}

// The scrub is also the operator's dump of a directory (vnfrsim
// --inspect): it must list every record the controller logged, in order
// and at its offset, and drop exactly the torn tail restart drops.
TEST(ServeVfs, ScrubListsEveryLoggedRecordAndTheTornTailRestartDrops) {
    const core::Instance inst = tiny_instance(24);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 1000;  // every record stays in the live wal-0.log
    cfg.queue_capacity = 4;       // six submits per drain: some are shed
    ServeMetrics metrics;
    {
        AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
        for (std::size_t i = 0; i < inst.requests.size(); ++i) {
            controller.submit(i, inst.requests[i]);
            if (i % 6 == 5) controller.drain();
        }
        metrics = controller.metrics();
    }  // no closing checkpoint: the records live only in the WAL
    ASSERT_GT(metrics.shed, 0u);

    const std::string wal = at("wal-0.log");
    const ScrubReport whole = scrub_data_dir(disk, kDir);
    ASSERT_TRUE(whole.clean());
    ASSERT_EQ(whole.generations.size(), 1u);
    EXPECT_EQ(whole.generations[0].file, wal);
    const std::vector<WalRecord>& logged = whole.generations[0].contents.records;
    // One record per request, each decided or shed once, packed back to
    // back from the end of the header to the end of the file.
    ASSERT_EQ(logged.size(), inst.requests.size());
    std::vector<bool> seen(inst.requests.size(), false);
    std::uint64_t shed = 0;
    std::uint64_t offset = kWalHeaderSize;
    for (const WalRecord& rec : logged) {
        ASSERT_LT(rec.seq, seen.size());
        EXPECT_FALSE(seen[rec.seq]) << "seq " << rec.seq << " logged twice";
        seen[rec.seq] = true;
        if (rec.kind == WalRecordKind::kShed) ++shed;
        EXPECT_EQ(rec.file_offset, offset);
        offset += encode_wal_record(rec).size();
    }
    EXPECT_EQ(shed, metrics.shed);
    EXPECT_EQ(offset, disk.read_file(wal).size());

    // Tear the last record as a crash mid-append would.
    const std::uint64_t torn_size = offset - 5;
    const int fd = disk.open_append(wal);
    disk.ftruncate(fd, wal, torn_size);
    disk.fdatasync(fd, wal);
    disk.close(fd);

    const ScrubReport torn = scrub_data_dir(disk, kDir);
    EXPECT_TRUE(torn.clean());
    ASSERT_EQ(torn.generations.size(), 1u);
    const WalContents& kept = torn.generations[0].contents;
    ASSERT_EQ(kept.records.size(), logged.size() - 1);
    for (std::size_t i = 0; i < kept.records.size(); ++i) {
        EXPECT_EQ(kept.records[i].seq, logged[i].seq);
        EXPECT_EQ(kept.records[i].kind, logged[i].kind);
        EXPECT_EQ(kept.records[i].file_offset, logged[i].file_offset);
    }
    EXPECT_EQ(kept.bytes_discarded, torn_size - logged.back().file_offset);
    EXPECT_EQ(kept.records_discarded, 1u);

    const AdmissionController restarted(inst, core::Scheme::kOnsite, cfg);
    EXPECT_EQ(restarted.recovery_stats().torn_tail_bytes, kept.bytes_discarded);
    EXPECT_EQ(restarted.recovery_stats().torn_tail_records, kept.records_discarded);
}

// ------------------------------------------------------- WAL file names

TEST(ServeVfs, WalGenerationsListNumericallyAndSkipForeignNames) {
    FaultyVfs vfs;
    for (const char* name :
         {"wal-10.log", "wal-9.log", "wal-0.log", "wal-18446744073709551616.log",
          "wal-007.log", "wal-.log", "wal-1x.log", "wal-2.log.tmp", "snapshot.bin"}) {
        vfs.close(vfs.create_truncate(at(name)));
    }
    // list_dir sorts names as strings, so wal-10.log precedes wal-9.log;
    // the generations come back in numeric order.
    EXPECT_EQ(list_wal_generations(vfs, kDir), (std::vector<std::uint64_t>{0, 9, 10}));
    EXPECT_EQ(wal_file_path(kDir, 10), at("wal-10.log"));
    EXPECT_TRUE(list_wal_generations(vfs, "/missing").empty());
}

TEST(ServeVfs, ForeignWalNameIsLeftAloneByRestartAndScrub) {
    const core::Instance inst = tiny_instance(12);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 1000;  // everything stays in the live wal-0.log
    std::uint64_t digest = 0;
    {
        AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
        for (std::size_t i = 0; i < inst.requests.size(); ++i) {
            controller.submit(i, inst.requests[i]);
            controller.drain();
        }
        digest = controller.state_digest();
    }
    // Its digits overflow uint64, so it is not a WAL generation.
    const std::string foreign = at("wal-18446744073709551616.log");
    const int fd = disk.create_truncate(foreign);
    disk.write_all(fd, foreign, "not a WAL");
    disk.close(fd);

    const AdmissionController restarted(inst, core::Scheme::kOnsite, cfg);
    EXPECT_EQ(restarted.state_digest(), digest);
    EXPECT_EQ(disk.read_file(foreign), "not a WAL");
    const ScrubReport report = scrub_data_dir(disk, kDir);
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.generations.size(), 1u);
}

TEST(ServeVfs, RetainedGenerationsPastNineRestartAndScrubInOrder) {
    const core::Instance inst = tiny_instance(24);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 2;  // 24 records: generations 0 .. 12
    cfg.retain_wals = true;
    std::uint64_t digest = 0;
    std::uint64_t generation = 0;
    {
        AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
        for (std::size_t i = 0; i < inst.requests.size(); ++i) {
            controller.submit(i, inst.requests[i]);
            controller.drain();
        }
        digest = controller.state_digest();
        generation = controller.wal_generation();
    }
    ASSERT_GE(generation, 10u);
    std::vector<std::uint64_t> expected(generation + 1);
    for (std::uint64_t g = 0; g <= generation; ++g) expected[g] = g;
    EXPECT_EQ(list_wal_generations(disk, kDir), expected);

    const AdmissionController restarted(inst, core::Scheme::kOnsite, cfg);
    EXPECT_EQ(restarted.state_digest(), digest);
    EXPECT_EQ(restarted.wal_generation(), generation);
    EXPECT_EQ(list_wal_generations(disk, kDir), expected);
    const ScrubReport report = scrub_data_dir(disk, kDir);
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.generations.size(), expected.size());
}

// ------------------------------------------------------------- PosixVfs

TEST(ServeVfs, PosixVfsRoundTripsOnTheRealFilesystem) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "vfs_posix";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Vfs& vfs = posix_vfs();
    const std::string tmp = (dir / "file.tmp").string();
    const std::string path = (dir / "file").string();

    const int fd = vfs.create_truncate(tmp);
    vfs.write_all(fd, tmp, "payload");
    vfs.fsync(fd, tmp);
    vfs.close(fd);
    vfs.rename(tmp, path);
    vfs.fsync_parent_dir(path);

    EXPECT_TRUE(vfs.file_exists(path));
    EXPECT_FALSE(vfs.file_exists(tmp));
    EXPECT_TRUE(vfs.dir_exists(dir.string()));
    EXPECT_EQ(vfs.read_file(path), "payload");
    const std::vector<std::string> names = vfs.list_dir(dir.string());
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "file");

    const int app = vfs.open_append(path);
    vfs.write_all(app, path, "!");
    vfs.fdatasync(app, path);
    vfs.ftruncate(app, path, 4);
    vfs.close(app);
    EXPECT_EQ(vfs.read_file(path), "payl");

    vfs.unlink(path);
    vfs.unlink(path);  // idempotent
    EXPECT_THROW((void)vfs.read_file(path), VfsError);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vnfr::serve
