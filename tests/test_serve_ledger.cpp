// The admitted ledger's crash windows and recovery contract: a cut after
// the ledger append and before the snapshot rename, a ledger shorter than
// (or missing from) what the snapshot names, a version-1 data directory
// that upgrades at its first rotation, the scrubber's ledger checks, and
// the coverage watermark against a plain-set reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/faults/chaos_support.hpp"
#include "serve/faults/faulty_vfs.hpp"
#include "serve/faults/wal_scrubber.hpp"
#include "serve/ledger.hpp"
#include "serve/snapshot.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

constexpr const char* kDir = "/ledgerdisk";
constexpr std::size_t kDrainEvery = 6;

std::string at(const std::string& name) { return std::string(kDir) + "/" + name; }

/// Tight capacity and varied payments, so admissions, rejections and
/// sheds all occur.
core::Instance ledger_instance(std::size_t n) {
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

ServeConfig ledger_config(FaultyVfs& disk) {
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 4;
    cfg.queue_capacity = 4;
    return cfg;
}

/// Replaces `path` with `bytes` (written and fsynced, not atomically).
void put_file(FaultyVfs& disk, const std::string& path, std::string_view bytes) {
    const int fd = disk.create_truncate(path);
    disk.write_all(fd, path, bytes);
    disk.fsync(fd, path);
    disk.close(fd);
}

/// Runs the whole trace on `disk` and checkpoints at the end, so the
/// snapshot names a ledger holding every admission.
std::uint64_t run_and_checkpoint(const core::Instance& inst, FaultyVfs& disk) {
    AdmissionController controller(inst, core::Scheme::kOnsite, ledger_config(disk));
    chaos::DriveProgress progress;
    chaos::drive(controller, inst.requests, 0, false, kDrainEvery, progress);
    controller.checkpoint();
    return controller.state_digest();
}

/// The version-1 snapshot layout, written by hand: the admitted list
/// inline where version 2 has the ledger length.
std::string encode_v1_snapshot(const ControllerSnapshot& snap,
                               const std::vector<AdmittedRecord>& admitted) {
    WireWriter w;
    w.put_bytes("VNFRSNP1");
    w.put_u32(1);
    w.put_u8(snap.scheme);
    w.put_u64(snap.config_digest);
    w.put_u64(snap.cloudlets);
    w.put_u64(snap.horizon);
    w.put_u64(snap.wal_seq);
    w.put_u64(snap.metrics.processed);
    w.put_u64(snap.metrics.admitted);
    w.put_u64(snap.metrics.rejected);
    w.put_u64(snap.metrics.shed);
    w.put_f64(snap.metrics.revenue);
    w.put_f64(snap.metrics.shed_revenue);
    for (const auto& row : snap.lambda) w.put_f64s(row);
    w.put_f64s(snap.usage);
    w.put_u64(snap.covered_watermark);
    w.put_u64(snap.covered_sparse.size());
    for (const std::uint64_t s : snap.covered_sparse) w.put_u64(s);
    w.put_u64(admitted.size());
    for (const AdmittedRecord& rec : admitted) {
        w.put_u64(rec.seq);
        w.put_i64(rec.request_id);
        w.put_f64(rec.payment);
        w.put_u32(static_cast<std::uint32_t>(rec.sites.size()));
        for (const auto& [cloudlet, replicas] : rec.sites) {
            w.put_i64(cloudlet);
            w.put_i64(replicas);
        }
    }
    w.put_crc32();
    return std::move(w).take();
}

TEST(RotationLedger, CutBetweenLedgerSyncAndSnapshotRenameTruncatesTheTail) {
    // The snapshot rename comes after the ledger append's fdatasync; a cut
    // that skips it leaves ledger records no snapshot names. Recovery must
    // truncate them and replay those admissions from the old WAL instead.
    const core::Instance inst = ledger_instance(40);
    std::uint64_t baseline_digest = 0;
    std::uint64_t ops = 0;
    {
        FaultyVfs disk;
        AdmissionController baseline(inst, core::Scheme::kOnsite, ledger_config(disk));
        chaos::DriveProgress progress;
        chaos::drive(baseline, inst.requests, 0, false, kDrainEvery, progress);
        baseline_digest = baseline.state_digest();
        ops = disk.op_count();
    }
    for (const CutKind kind : {CutKind::kProcessCrash, CutKind::kPowerCutTornTail}) {
        SCOPED_TRACE(cut_kind_name(kind));
        std::size_t windows = 0;
        std::size_t tails = 0;
        for (std::uint64_t op = 1; op <= ops; ++op) {
            DiskFaultPlan plan;
            plan.cut_at_op = op;
            plan.cut_kind = kind;
            FaultyVfs disk(plan);
            const ServeConfig cfg = ledger_config(disk);
            chaos::DriveProgress progress;
            std::string cut_op;
            std::string cut_path;
            try {
                AdmissionController victim(inst, core::Scheme::kOnsite, cfg);
                chaos::drive(victim, inst.requests, 0, false, kDrainEvery, progress);
            } catch (const CrashInjected& crash) {
                cut_op = crash.op();
                cut_path = crash.path();
            }
            if (cut_op != "rename" || cut_path != at("snapshot.bin.tmp")) continue;
            ++windows;
            // Before the first rotation completes no snapshot names a ledger.
            std::uint64_t named = 0;
            if (disk.file_exists(at("snapshot.bin"))) {
                named = load_snapshot(disk, at("snapshot.bin")).ledger_bytes;
            }
            const std::uint64_t before = disk.read_file(at("snapshot.ledger")).size();
            if (named > 0 && before > named) ++tails;

            AdmissionController revived(inst, core::Scheme::kOnsite, cfg);
            if (named > 0) {
                EXPECT_EQ(disk.read_file(at("snapshot.ledger")).size(), named)
                    << "cut at op " << op;
            }
            chaos::rebuild_queue(revived, inst.requests, progress.submitted);
            chaos::DriveProgress rest;
            chaos::drive(revived, inst.requests, progress.submitted, progress.in_drain,
                         kDrainEvery, rest);
            EXPECT_EQ(revived.state_digest(), baseline_digest) << "cut at op " << op;
            EXPECT_TRUE(scrub_data_dir(disk, kDir).clean()) << "cut at op " << op;
        }
        EXPECT_GT(windows, 1u);
        EXPECT_GT(tails, 0u);  // some window really left an unnamed tail
    }
}

TEST(RotationLedger, LedgerShorterThanTheSnapshotNamesIsRejected) {
    const core::Instance inst = ledger_instance(40);
    FaultyVfs disk;
    (void)run_and_checkpoint(inst, disk);
    const ControllerSnapshot snap = load_snapshot(disk, at("snapshot.bin"));
    ASSERT_GT(snap.metrics.admitted, 0u);
    const std::string ledger = disk.read_file(at("snapshot.ledger"));
    ASSERT_EQ(ledger.size(), snap.ledger_bytes);
    put_file(disk, at("snapshot.ledger"), std::string_view(ledger).substr(0, ledger.size() - 1));
    try {
        const AdmissionController revived(inst, core::Scheme::kOnsite, ledger_config(disk));
        FAIL() << "a short ledger recovered";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.file(), at("snapshot.ledger"));
        EXPECT_EQ(e.offset(), snap.ledger_bytes - 1);
    }
    EXPECT_FALSE(scrub_data_dir(disk, kDir).clean());
}

TEST(RotationLedger, MissingLedgerIsRejectedWhenTheSnapshotCountsAdmissions) {
    const core::Instance inst = ledger_instance(40);
    FaultyVfs disk;
    (void)run_and_checkpoint(inst, disk);
    ASSERT_GT(load_snapshot(disk, at("snapshot.bin")).metrics.admitted, 0u);
    disk.unlink(at("snapshot.ledger"));
    try {
        const AdmissionController revived(inst, core::Scheme::kOnsite, ledger_config(disk));
        FAIL() << "a snapshot without its ledger recovered";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.file(), at("snapshot.ledger"));
        EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
    }
    const ScrubReport report = scrub_data_dir(disk, kDir);
    ASSERT_FALSE(report.clean());
    EXPECT_EQ(report.findings.front().file, at("snapshot.ledger"));
}

TEST(ServeLedger, VersionOneDataDirectoryUpgradesAtItsFirstRotation) {
    const core::Instance inst = ledger_instance(40);
    // A directory written by this controller, checkpointed halfway, with
    // WAL records after the snapshot.
    FaultyVfs source;
    std::uint64_t digest = 0;
    {
        AdmissionController controller(inst, core::Scheme::kOnsite, ledger_config(source));
        for (std::size_t i = 0; i < 20; ++i) controller.submit(i, inst.requests[i]);
        controller.drain();
        controller.checkpoint();
        for (std::size_t i = 20; i < 23; ++i) controller.submit(i, inst.requests[i]);
        controller.drain();
        ASSERT_GT(controller.wal_records(), 0u);
        digest = controller.state_digest();
    }
    // The same state as a version-1 directory: the admitted list inline in
    // the snapshot, the same WAL, and no ledger file.
    const ControllerSnapshot snap = load_snapshot(source, at("snapshot.bin"));
    const LedgerContents ledger = load_ledger(source, at("snapshot.ledger"), snap);
    ASSERT_GT(ledger.records.size(), 0u);
    FaultyVfs v1;
    put_file(v1, at("snapshot.bin"), encode_v1_snapshot(snap, ledger.records));
    const std::string wal = wal_file_path(kDir, snap.wal_seq);
    put_file(v1, wal, source.read_file(wal));
    ASSERT_TRUE(load_snapshot(v1, at("snapshot.bin")).ledger_bytes == 0);
    {
        AdmissionController upgraded(inst, core::Scheme::kOnsite, ledger_config(v1));
        EXPECT_TRUE(upgraded.recovery_stats().recovered_snapshot);
        EXPECT_EQ(upgraded.state_digest(), digest);
        EXPECT_FALSE(v1.file_exists(at("snapshot.ledger")));
        // The first rotation writes the whole admitted list to the ledger.
        upgraded.checkpoint();
        const ControllerSnapshot v2 = load_snapshot(v1, at("snapshot.bin"));
        EXPECT_GT(v2.ledger_bytes, kLedgerHeaderSize);
        EXPECT_EQ(load_ledger(v1, at("snapshot.ledger"), v2).records.size(),
                  upgraded.metrics().admitted);
        EXPECT_EQ(encode_snapshot(v2), v1.read_file(at("snapshot.bin")));
    }
    const AdmissionController restarted(inst, core::Scheme::kOnsite, ledger_config(v1));
    EXPECT_EQ(restarted.state_digest(), digest);
    EXPECT_TRUE(scrub_data_dir(v1, kDir).clean());
}

TEST(ServeLedger, ScrubberChecksTheNamedPrefixAndToleratesATail) {
    const core::Instance inst = ledger_instance(40);
    FaultyVfs disk;
    const std::uint64_t digest = run_and_checkpoint(inst, disk);
    const ControllerSnapshot snap = load_snapshot(disk, at("snapshot.bin"));
    ScrubReport report = scrub_data_dir(disk, kDir);
    ASSERT_TRUE(report.clean());
    EXPECT_EQ(report.ledger_records_verified, snap.metrics.admitted);
    EXPECT_EQ(report.ledger_tail_bytes, 0u);

    // A flipped bit inside the named prefix is corruption.
    const std::string ledger = at("snapshot.ledger");
    disk.corrupt_durable_byte(ledger, kLedgerHeaderSize + 5, 0x08);
    report = scrub_data_dir(disk, kDir);
    ASSERT_FALSE(report.clean());
    EXPECT_EQ(report.findings.front().file, ledger);
    EXPECT_GE(report.findings.front().offset, kLedgerHeaderSize);
    disk.corrupt_durable_byte(ledger, kLedgerHeaderSize + 5, 0x08);
    EXPECT_TRUE(scrub_data_dir(disk, kDir).clean());

    // Garbage past the named length is a legal torn tail, which a restart
    // truncates.
    const int fd = disk.open_append(ledger);
    disk.write_all(fd, ledger, "garbage");
    disk.close(fd);
    report = scrub_data_dir(disk, kDir);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.ledger_tail_bytes, 7u);
    const AdmissionController restarted(inst, core::Scheme::kOnsite, ledger_config(disk));
    EXPECT_EQ(restarted.state_digest(), digest);
    EXPECT_EQ(disk.read_file(ledger).size(), snap.ledger_bytes);
}

/// A default-config (byte-triggered) controller over `disk` that keeps
/// every WAL generation, so the closed ones can be measured afterwards.
ServeConfig default_cadence_config(Vfs& disk) {
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.queue_capacity = 1024;  // nothing sheds: covered seqs stay dense
    cfg.retain_wals = true;
    return cfg;
}

/// Submits and pumps `requests[from, to)` one at a time.
void admit_one_by_one(AdmissionController& controller,
                      const std::vector<workload::Request>& requests, std::size_t from,
                      std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
        controller.submit(i, requests[i]);
        ASSERT_EQ(controller.pump(1).size(), 1u);
    }
}

/// α·S of `inst` under `scheme`: every snapshot of a run with no sparse
/// covered seqs has the size of a fresh controller's first snapshot.
double trigger_bytes(const core::Instance& inst, core::Scheme scheme) {
    FaultyVfs scratch;
    AdmissionController fresh(inst, scheme, default_cadence_config(scratch));
    fresh.checkpoint();
    return kCheckpointWalRatio *
           static_cast<double>(scratch.read_file(at("snapshot.bin")).size());
}

TEST(RotationTrigger, DefaultConfigRotatesAtTheRecordThatReachesTheRatio) {
    const core::Instance inst = ledger_instance(240);
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        SCOPED_TRACE(scheme == core::Scheme::kOnsite ? "on-site" : "off-site");
        FaultyVfs disk;
        AdmissionController controller(inst, scheme, default_cadence_config(disk));
        admit_one_by_one(controller, inst.requests, 0, inst.requests.size());
        const std::uint64_t live = controller.wal_generation();
        ASSERT_GE(live, 4u);
        const double reach = trigger_bytes(inst, scheme);
        for (std::uint64_t g = 0; g < live; ++g) {
            const WalContents wal =
                read_wal(disk, wal_file_path(kDir, g), WalReadMode::kStrict);
            ASSERT_FALSE(wal.records.empty());
            // The generation closed at its last record: the bytes before it
            // fell short of α·S, and that record reached it.
            EXPECT_LT(static_cast<double>(wal.records.back().file_offset - kWalHeaderSize),
                      reach)
                << "generation " << g;
            EXPECT_GE(static_cast<double>(wal.valid_size - kWalHeaderSize), reach)
                << "generation " << g;
        }
        EXPECT_LT(static_cast<double>(controller.wal_position().durable_bytes - kWalHeaderSize),
                  reach);
    }
}

/// Forwards to a FaultyVfs and counts what a reader takes from the
/// ledger's records (bytes past its header) and from WAL files.
class ReadCountingVfs final : public Vfs {
  public:
    explicit ReadCountingVfs(FaultyVfs& inner) : inner_(inner) {}

    std::uint64_t ledger_record_bytes{0};
    std::uint64_t wal_bytes{0};

    bool file_exists(const std::string& path) override { return inner_.file_exists(path); }
    bool dir_exists(const std::string& path) override { return inner_.dir_exists(path); }
    std::string read_file(const std::string& path) override {
        std::string bytes = inner_.read_file(path);
        count(path, 0, bytes.size());
        return bytes;
    }
    FileRange read_range(const std::string& path, std::uint64_t offset,
                         std::uint64_t length) override {
        FileRange range = inner_.read_range(path, offset, length);
        count(path, offset, range.bytes.size());
        return range;
    }
    std::vector<std::string> list_dir(const std::string& dir) override {
        return inner_.list_dir(dir);
    }
    int create_truncate(const std::string& path) override {
        return inner_.create_truncate(path);
    }
    int open_append(const std::string& path) override { return inner_.open_append(path); }
    void write_all(int fd, const std::string& path, std::string_view bytes) override {
        inner_.write_all(fd, path, bytes);
    }
    void fsync(int fd, const std::string& path) override { inner_.fsync(fd, path); }
    void fdatasync(int fd, const std::string& path) override { inner_.fdatasync(fd, path); }
    void ftruncate(int fd, const std::string& path, std::uint64_t size) override {
        inner_.ftruncate(fd, path, size);
    }
    void close(int fd) noexcept override { inner_.close(fd); }
    void rename(const std::string& from, const std::string& to) override {
        inner_.rename(from, to);
    }
    void unlink(const std::string& path) override { inner_.unlink(path); }
    void fsync_parent_dir(const std::string& path) override { inner_.fsync_parent_dir(path); }
    void sleep_for_micros(std::uint64_t micros) override { inner_.sleep_for_micros(micros); }

  private:
    void count(const std::string& path, std::uint64_t offset, std::uint64_t size) {
        if (path == at("snapshot.ledger")) {
            const std::uint64_t end = offset + size;
            if (end > kLedgerHeaderSize) {
                ledger_record_bytes += end - std::max(offset, kLedgerHeaderSize);
            }
        } else if (path.ends_with(".log")) {
            wal_bytes += size;
        }
    }

    FaultyVfs& inner_;
};

TEST(ServeBoundedState, RestartReadsNoLedgerRecordsAndAtMostOneTriggerOfWal) {
    constexpr std::size_t kShort = 200;
    const core::Instance inst = ledger_instance(10 * kShort);
    const double reach = trigger_bytes(inst, core::Scheme::kOnsite);
    for (const std::size_t requests : {kShort, 10 * kShort}) {
        SCOPED_TRACE(requests);
        FaultyVfs disk;
        ReadCountingVfs counting(disk);
        ServeConfig cfg = default_cadence_config(counting);
        cfg.retain_wals = false;
        std::uint64_t digest = 0;
        {
            AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
            for (std::size_t i = 0; i < requests; ++i) {
                admit_one_by_one(controller, inst.requests, i, i + 1);
                // The admissions no snapshot names yet are the in-memory
                // tail; it never outgrows the WAL since the snapshot, and
                // that never reaches α·S after a pump.
                std::uint64_t named = 0;
                if (disk.file_exists(at("snapshot.bin"))) {
                    named = load_snapshot(disk, at("snapshot.bin")).metrics.admitted;
                }
                ASSERT_LE(controller.metrics().admitted - named, controller.wal_records());
                ASSERT_LT(static_cast<double>(controller.wal_position().durable_bytes -
                                              kWalHeaderSize),
                          reach);
            }
            ASSERT_GT(controller.wal_generation(), 2u);
            digest = controller.state_digest();
        }
        counting.ledger_record_bytes = 0;
        counting.wal_bytes = 0;
        const AdmissionController restarted(inst, core::Scheme::kOnsite, cfg);
        EXPECT_EQ(counting.ledger_record_bytes, 0u);
        EXPECT_GT(restarted.recovery_stats().wal_records_replayed, 0u);
        EXPECT_LT(static_cast<double>(counting.wal_bytes),
                  static_cast<double>(kWalHeaderSize) + reach);
        EXPECT_EQ(restarted.state_digest(), digest);
        EXPECT_GT(counting.ledger_record_bytes, 0u);  // the digest streams the ledger
    }
}

TEST(ServeBoundedState, CorruptLedgerPrefixFailsTheDigestAndTheAdmittedList) {
    const core::Instance inst = ledger_instance(120);
    FaultyVfs disk;
    ServeConfig cfg = default_cadence_config(disk);
    AdmissionController live(inst, core::Scheme::kOnsite, cfg);
    admit_one_by_one(live, inst.requests, 0, inst.requests.size());
    live.checkpoint();
    const std::vector<AdmittedRecord> admitted = live.admitted_records();
    ASSERT_FALSE(admitted.empty());
    // A flipped seq byte of the first record fails that record's CRC.
    const std::string ledger = at("snapshot.ledger");
    const std::uint64_t crc_at = kLedgerHeaderSize + encode_ledger_record(admitted[0]).size() - 4;
    disk.corrupt_durable_byte(ledger, kLedgerHeaderSize + 5, 0x10);

    const auto expect_corrupt = [&](const auto& read, const char* what) {
        try {
            (void)read();
            FAIL() << what << " read a corrupt ledger";
        } catch (const CorruptStateError& e) {
            EXPECT_EQ(e.file(), ledger) << what;
            EXPECT_EQ(e.offset(), crc_at) << what;
        }
    };
    expect_corrupt([&] { return live.state_digest(); }, "live state_digest");
    expect_corrupt([&] { return live.admitted_records(); }, "live admitted_records");
    // A restart checks only the header and the length, so it comes up;
    // the first reader of the prefix fails.
    const AdmissionController restarted(inst, core::Scheme::kOnsite, cfg);
    expect_corrupt([&] { return restarted.state_digest(); }, "restarted state_digest");
    expect_corrupt([&] { return restarted.admitted_records(); }, "restarted admitted_records");
    const ScrubReport report = scrub_data_dir(disk, kDir);
    ASSERT_FALSE(report.clean());
    EXPECT_EQ(report.findings.front().file, ledger);
    EXPECT_EQ(report.findings.front().offset, crc_at);
}

TEST(ServeLedger, CoverageWatermarkMatchesASetReference) {
    // Decisions cover seqs in order; a shed queued victim covers one out
    // of order. A plain set of covered seqs is the reference for both the
    // watermark and every is_covered answer, after every step.
    constexpr std::size_t kRequests = 400;
    common::Rng rng(0xC0DE);
    std::vector<workload::Request> reqs;
    for (std::size_t i = 0; i < kRequests; ++i) {
        reqs.push_back(make_request(static_cast<std::int64_t>(i), 0, 0.9,
                                    static_cast<TimeSlot>((i * 6) / kRequests),
                                    1 + static_cast<TimeSlot>(i % 2),
                                    static_cast<double>(rng.uniform_int(1, 6))));
    }
    const core::Instance inst = small_instance({0.98, 0.97}, 6.0, 8, std::move(reqs));
    FaultyVfs disk;
    ServeConfig cfg = ledger_config(disk);
    cfg.checkpoint_every = 5;  // snapshots capture sparse covered sets
    AdmissionController ctl(inst, core::Scheme::kOnsite, cfg);

    std::set<std::uint64_t> covered;
    std::map<std::uint64_t, double> queued;  // seq -> payment
    std::size_t out_of_order = 0;
    const auto check = [&](std::uint64_t through) {
        std::uint64_t watermark = 0;
        while (covered.contains(watermark)) ++watermark;
        ASSERT_EQ(ctl.resume_cursor(), watermark);
        for (std::uint64_t s = 0; s <= through + 1; ++s) {
            ASSERT_EQ(ctl.is_covered(s), covered.contains(s)) << "seq " << s;
        }
    };
    for (std::uint64_t seq = 0; seq < kRequests; ++seq) {
        const double payment = inst.requests[seq].payment;
        switch (ctl.submit(seq, inst.requests[seq])) {
            case SubmitResult::kQueued:
                queued.emplace(seq, payment);
                break;
            case SubmitResult::kShedIncoming:
                covered.insert(seq);
                break;
            case SubmitResult::kShedQueued: {
                // The victim: lowest payment, the younger one on a tie.
                auto victim = queued.begin();
                for (auto it = queued.begin(); it != queued.end(); ++it) {
                    if (it->second <= victim->second) victim = it;
                }
                if (victim->first != queued.begin()->first) ++out_of_order;
                covered.insert(victim->first);
                queued.erase(victim);
                queued.emplace(seq, payment);
                break;
            }
            case SubmitResult::kAlreadyCovered:
                FAIL() << "fresh seq " << seq << " reported covered";
        }
        check(seq);
        if (rng.uniform_int(0, 2) == 0) {
            for (const ProcessedOutcome& o :
                 ctl.pump(static_cast<std::size_t>(rng.uniform_int(1, 3)))) {
                ASSERT_EQ(o.seq, queued.begin()->first);  // decisions run in order
                covered.insert(o.seq);
                queued.erase(queued.begin());
            }
            check(seq);
        }
    }
    for (const ProcessedOutcome& o : ctl.drain()) covered.insert(o.seq);
    check(kRequests);
    EXPECT_GT(out_of_order, 10u);  // sheds really covered seqs out of order
    EXPECT_EQ(ctl.resume_cursor(), kRequests);

    const AdmissionController restarted(inst, core::Scheme::kOnsite, cfg);
    EXPECT_EQ(restarted.state_digest(), ctl.state_digest());
}

}  // namespace
}  // namespace vnfr::serve
