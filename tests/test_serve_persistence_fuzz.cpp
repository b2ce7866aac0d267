// Fuzz-style robustness tests for the serve layer's durable formats.
// Every mutated input must be rejected with a CorruptStateError that
// names the file and a byte offset — never UB, never a silent
// mis-parse. Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "serve/faults/faulty_vfs.hpp"
#include "serve/ledger.hpp"
#include "serve/snapshot.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve {
namespace {

ControllerSnapshot sample_snapshot() {
    ControllerSnapshot snap;
    snap.scheme = 1;
    snap.config_digest = 0x1122334455667788ULL;
    snap.cloudlets = 2;
    snap.horizon = 3;
    snap.wal_seq = 4;
    snap.metrics = {5, 2, 3, 1, 17.5, 2.25};
    snap.lambda = {{0.0, 0.5, 1.0}, {2.0, 0.0, 0.25}};
    snap.usage = {1.0, 0.0, 2.0, 0.0, 3.0, 1.0};
    snap.covered_watermark = 6;
    snap.covered_sparse = {8, 11};
    snap.ledger_bytes = kLedgerHeaderSize + 52 + 68;  // the two records below
    return snap;
}

/// The admitted records sample_snapshot() counts, as its ledger holds them.
std::vector<AdmittedRecord> sample_admitted() {
    return {
        {1, 101, 10.0, {{0, 2}}},
        {3, 103, 7.5, {{1, 1}, {0, 3}}},
    };
}

/// The ledger image sample_snapshot() names: header plus sample_admitted().
std::string ledger_image(const std::vector<AdmittedRecord>& records) {
    std::string bytes = encode_ledger_header(sample_snapshot().config_digest);
    for (const AdmittedRecord& rec : records) bytes += encode_ledger_record(rec);
    return bytes;
}

workload::Request sample_request(std::int64_t id) {
    workload::Request r;
    r.id = RequestId{id};
    r.vnf = VnfTypeId{0};
    r.requirement = 0.9;
    r.arrival = 1;
    r.duration = 2;
    r.payment = 5.0 + static_cast<double>(id);
    r.source = NodeId{0};
    return r;
}

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

/// Writes a WAL with `records` decision/shed records and returns its bytes.
std::string build_wal_bytes(const std::string& path, std::size_t records) {
    std::remove(path.c_str());
    WalWriter w = WalWriter::create(posix_vfs(), path, 7, 0xABCDEF01ULL);
    for (std::size_t i = 0; i < records; ++i) {
        WalRecord rec;
        rec.kind = (i % 3 == 2) ? WalRecordKind::kShed : WalRecordKind::kDecision;
        rec.seq = i;
        rec.request = sample_request(static_cast<std::int64_t>(i));
        if (rec.kind == WalRecordKind::kDecision) {
            rec.admitted = (i % 2 == 0);
            rec.reject_reason =
                rec.admitted ? core::RejectReason::kNone : core::RejectReason::kPricedOut;
            if (rec.admitted) rec.sites.push_back(core::Site{CloudletId{0}, 1});
        }
        w.append(rec);
    }
    w.close();
    return read_file(posix_vfs(), path);
}

// --- Snapshot fuzzing -------------------------------------------------

TEST(SnapshotFuzz, RoundTripIsExact) {
    const ControllerSnapshot snap = sample_snapshot();
    const std::string bytes = encode_snapshot(snap);
    const ControllerSnapshot back = decode_snapshot(bytes, "roundtrip");
    EXPECT_EQ(back.config_digest, snap.config_digest);
    EXPECT_EQ(back.metrics.processed, snap.metrics.processed);
    EXPECT_EQ(back.metrics.revenue, snap.metrics.revenue);
    EXPECT_EQ(back.lambda, snap.lambda);
    EXPECT_EQ(back.usage, snap.usage);
    EXPECT_EQ(back.covered_sparse, snap.covered_sparse);
    EXPECT_EQ(back.ledger_bytes, snap.ledger_bytes);
    EXPECT_TRUE(back.admitted.empty());  // version 2 keeps them in the ledger
}

TEST(SnapshotFuzz, EveryTruncationLengthIsRejected) {
    const std::string bytes = encode_snapshot(sample_snapshot());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW(decode_snapshot(bytes.substr(0, len), "truncated"),
                      CorruptStateError)
            << "prefix of " << len << " bytes parsed as valid";
    }
}

TEST(SnapshotFuzz, EverySingleByteFlipIsRejected) {
    const std::string bytes = encode_snapshot(sample_snapshot());
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
        // The whole-file CRC makes any one-byte flip detectable.
        EXPECT_THROW(decode_snapshot(mutated, "flipped"), CorruptStateError)
            << "flip at byte " << pos << " parsed as valid";
    }
}

TEST(SnapshotFuzz, RandomGarbageIsRejected) {
    std::mt19937_64 rng(20260806);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> length(0, 512);
    for (int trial = 0; trial < 200; ++trial) {
        std::string junk(length(rng), '\0');
        for (char& c : junk) c = static_cast<char>(byte(rng));
        EXPECT_THROW(decode_snapshot(junk, "garbage"), CorruptStateError);
    }
}

TEST(SnapshotFuzz, FutureVersionIsRejectedWithOffset) {
    ControllerSnapshot snap = sample_snapshot();
    std::string bytes = encode_snapshot(snap);
    // Version is the u32 right after the 8-byte magic. Bump it and
    // re-seal the trailer CRC so only the version is at fault.
    bytes[8] = static_cast<char>(kSnapshotVersion + 1);
    WireWriter crc;
    crc.put_u32(crc32(std::string_view(bytes).substr(0, bytes.size() - 4)));
    bytes.replace(bytes.size() - 4, 4, crc.bytes());
    try {
        (void)decode_snapshot(bytes, "versioned");
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 8u);
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
}

TEST(SnapshotFuzz, SemanticLiesAreRejectedEvenWithValidCrc) {
    // Counters that disagree (admitted + rejected != processed) must be
    // caught by validation, not just framing.
    ControllerSnapshot snap = sample_snapshot();
    snap.metrics.processed = 99;
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "lying counters"),
                 CorruptStateError);

    snap = sample_snapshot();
    snap.lambda[0][1] = -1.0;  // dual prices are non-negative
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "negative dual"),
                 CorruptStateError);

    snap = sample_snapshot();
    snap.covered_sparse = {8, 8};  // must be strictly ascending
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "dup sparse"),
                 CorruptStateError);

    snap = sample_snapshot();
    snap.covered_sparse = {2};  // below the watermark
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "sparse below watermark"),
                 CorruptStateError);

    // The admitted records moved to the ledger; its decoder checks them.
    std::vector<AdmittedRecord> admitted = sample_admitted();
    admitted[0].sites[0].first = 7;  // cloudlet out of range
    EXPECT_THROW((void)parse_ledger_bytes(ledger_image(admitted), "bad site", 2),
                 CorruptStateError);
}

TEST(SnapshotFuzz, SaveLoadRoundTripsThroughDisk) {
    const std::string path = temp_path("snapfuzz_roundtrip.bin");
    const ControllerSnapshot snap = sample_snapshot();
    atomic_write_file(posix_vfs(), path, encode_snapshot(snap));
    const ControllerSnapshot back = load_snapshot(posix_vfs(), path);
    EXPECT_EQ(encode_snapshot(back), encode_snapshot(snap));
    std::remove(path.c_str());
}

TEST(SnapshotFuzz, EncoderRefusesAnInlineLedgerOrAMissingOne) {
    ControllerSnapshot snap = sample_snapshot();
    snap.admitted = sample_admitted();  // version 1 only
    EXPECT_THROW((void)encode_snapshot(snap), std::invalid_argument);
    snap = sample_snapshot();
    snap.ledger_bytes = kLedgerHeaderSize - 1;  // names no ledger
    EXPECT_THROW((void)encode_snapshot(snap), std::invalid_argument);
}

// --- Ledger fuzzing ---------------------------------------------------

TEST(LedgerFuzz, RoundTripIsExact) {
    const std::string bytes = ledger_image(sample_admitted());
    ASSERT_EQ(bytes.size(), sample_snapshot().ledger_bytes);
    const LedgerContents back = parse_ledger_bytes(bytes, "roundtrip", 2);
    EXPECT_EQ(back.config_digest, sample_snapshot().config_digest);
    ASSERT_EQ(back.records.size(), 2u);
    EXPECT_EQ(back.records[1].seq, 3u);
    EXPECT_EQ(back.records[1].payment, 7.5);
    EXPECT_EQ(back.records[1].sites, sample_admitted()[1].sites);
}

TEST(LedgerFuzz, SemanticLiesAreRejectedEvenWithValidCrc) {
    // Each record is CRC-framed correctly, so only field validation can
    // catch these; the offset lands inside the lying record.
    const std::uint64_t second = kLedgerHeaderSize + 52;
    const auto expect_rejected_in_second = [&](const AdmittedRecord& lie,
                                               const char* what) {
        std::vector<AdmittedRecord> admitted = sample_admitted();
        admitted[1] = lie;
        try {
            (void)parse_ledger_bytes(ledger_image(admitted), what, 2);
            FAIL() << what << " parsed as valid";
        } catch (const CorruptStateError& e) {
            EXPECT_EQ(e.file(), what);
            EXPECT_GT(e.offset(), second) << what;
        }
    };
    AdmittedRecord lie = sample_admitted()[1];
    lie.sites[0].first = 7;
    expect_rejected_in_second(lie, "cloudlet out of range");
    lie = sample_admitted()[1];
    lie.sites[1].first = -1;
    expect_rejected_in_second(lie, "negative cloudlet");
    lie = sample_admitted()[1];
    lie.payment = -2.0;
    expect_rejected_in_second(lie, "negative payment");
    lie = sample_admitted()[1];
    lie.payment = std::numeric_limits<double>::quiet_NaN();
    expect_rejected_in_second(lie, "NaN payment");
    lie = sample_admitted()[1];
    lie.sites[0].second = 0;
    expect_rejected_in_second(lie, "zero replicas");
}

TEST(LedgerFuzz, EveryTruncationIsRejectedOrEndsOnARecord) {
    const std::string bytes = ledger_image(sample_admitted());
    const std::vector<std::size_t> boundaries = {kLedgerHeaderSize, kLedgerHeaderSize + 52,
                                                 bytes.size()};
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::string_view prefix = std::string_view(bytes).substr(0, len);
        const auto at = std::find(boundaries.begin(), boundaries.end(), len);
        if (at == boundaries.end()) {
            // The parse is strict: a prefix ending mid-record is corrupt.
            EXPECT_THROW((void)parse_ledger_bytes(prefix, "truncated", 2), CorruptStateError)
                << "prefix of " << len << " bytes parsed as valid";
        } else {
            EXPECT_EQ(parse_ledger_bytes(prefix, "boundary", 2).records.size(),
                      static_cast<std::size_t>(at - boundaries.begin()));
        }
    }
}

TEST(LedgerFuzz, EverySingleByteFlipIsRejected) {
    const std::string bytes = ledger_image(sample_admitted());
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
        EXPECT_THROW((void)parse_ledger_bytes(mutated, "flipped", 2), CorruptStateError)
            << "flip at byte " << pos << " parsed as valid";
    }
}

TEST(LedgerFuzz, RandomGarbageIsRejected) {
    std::mt19937_64 rng(20261018);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> length(0, 512);
    const std::string header = encode_ledger_header(1);
    for (int trial = 0; trial < 200; ++trial) {
        std::string junk(length(rng), '\0');
        for (char& c : junk) c = static_cast<char>(byte(rng));
        EXPECT_THROW((void)parse_ledger_bytes(junk, "garbage", 2), CorruptStateError);
        // Behind a valid header, junk records die on framing or CRC.
        if (!junk.empty()) {
            EXPECT_THROW((void)parse_ledger_bytes(header + junk, "garbage", 2),
                         CorruptStateError);
        }
    }
}

TEST(LedgerFuzz, LoadReadsOnlyTheNamedPrefixAndChecksItAgainstTheSnapshot) {
    FaultyVfs vfs;
    const std::string path = "/disk/snapshot.ledger";
    const ControllerSnapshot snap = sample_snapshot();
    const auto write = [&](const std::string& bytes) {
        const int fd = vfs.create_truncate(path);
        vfs.write_all(fd, path, bytes);
        vfs.close(fd);
    };
    const auto expect_corrupt_at = [&](std::uint64_t offset, const char* what) {
        try {
            (void)load_ledger(vfs, path, snap);
            FAIL() << what << " loaded";
        } catch (const CorruptStateError& e) {
            EXPECT_EQ(e.file(), path) << what;
            EXPECT_EQ(e.offset(), offset) << what;
        }
    };
    expect_corrupt_at(0, "missing ledger");

    const std::string image = ledger_image(sample_admitted());
    write(image + "torn tail past the named length");
    const LedgerContents loaded = load_ledger(vfs, path, snap);
    EXPECT_EQ(loaded.records.size(), 2u);
    EXPECT_EQ(loaded.tail_bytes, 31u);

    write(image.substr(0, image.size() - 1));
    expect_corrupt_at(image.size() - 1, "short ledger");

    // A prefix holding one record fewer than the snapshot counts.
    write(ledger_image({sample_admitted()[0]}) + std::string(68, 'x'));
    expect_corrupt_at(snap.ledger_bytes - 68, "garbage inside the named prefix");
    ControllerSnapshot fewer = snap;
    fewer.ledger_bytes = kLedgerHeaderSize + 52;
    try {
        (void)load_ledger(vfs, path, fewer);
        FAIL() << "a prefix short of the admitted counter loaded";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), fewer.ledger_bytes);
        EXPECT_NE(std::string(e.what()).find("counts 2 admitted"), std::string::npos);
    }
    std::string other = image;
    other.replace(0, kLedgerHeaderSize, encode_ledger_header(snap.config_digest + 1));
    write(other);
    expect_corrupt_at(kLedgerHeaderSize - 12, "foreign config digest");
}

// --- WAL fuzzing ------------------------------------------------------

TEST(WalFuzz, CleanFileReadsBackInBothModes) {
    const std::string path = temp_path("walfuzz_clean.log");
    build_wal_bytes(path, 5);
    for (WalReadMode mode : {WalReadMode::kStrict, WalReadMode::kRecover}) {
        const WalContents c = read_wal(posix_vfs(), path, mode);
        EXPECT_EQ(c.wal_seq, 7u);
        EXPECT_EQ(c.config_digest, 0xABCDEF01ULL);
        ASSERT_EQ(c.records.size(), 5u);
        EXPECT_EQ(c.bytes_discarded, 0u);
        EXPECT_EQ(c.records[2].kind, WalRecordKind::kShed);
        EXPECT_EQ(c.records[0].sites.size(), 1u);
        EXPECT_EQ(c.records[1].reject_reason, core::RejectReason::kPricedOut);
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, ZeroLengthWalIsAlwaysCorruption) {
    // The header is created atomically, so an empty WAL can only mean
    // tampering — both modes must refuse it.
    const std::string path = temp_path("walfuzz_empty.log");
    atomic_write_file(posix_vfs(), path, "");
    EXPECT_THROW((void)read_wal(posix_vfs(), path, WalReadMode::kStrict), CorruptStateError);
    EXPECT_THROW((void)read_wal(posix_vfs(), path, WalReadMode::kRecover), CorruptStateError);
    std::remove(path.c_str());
}

TEST(WalFuzz, HeaderTruncationsAreCorruptionInBothModes) {
    const std::string path = temp_path("walfuzz_hdr.log");
    const std::string bytes = build_wal_bytes(path, 2);
    for (std::size_t len = 0; len < 32; ++len) {
        atomic_write_file(posix_vfs(), path, std::string_view(bytes).substr(0, len));
        EXPECT_THROW((void)read_wal(posix_vfs(), path, WalReadMode::kStrict), CorruptStateError)
            << "header prefix " << len;
        EXPECT_THROW((void)read_wal(posix_vfs(), path, WalReadMode::kRecover), CorruptStateError)
            << "header prefix " << len;
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, EveryBodyTruncationRecoversAsTornTail) {
    const std::string path = temp_path("walfuzz_torn.log");
    const std::string bytes = build_wal_bytes(path, 4);
    const WalContents whole = read_wal(posix_vfs(), path, WalReadMode::kStrict);
    ASSERT_EQ(whole.records.size(), 4u);
    // Offsets of each record's start, plus end-of-file.
    std::vector<std::uint64_t> starts;
    for (const WalRecord& r : whole.records) starts.push_back(r.file_offset);
    starts.push_back(bytes.size());

    for (std::size_t len = 32; len < bytes.size(); ++len) {
        atomic_write_file(posix_vfs(), path, std::string_view(bytes).substr(0, len));
        // Strict mode refuses any truncation mid-record.
        std::size_t intact = 0;
        while (intact + 1 < starts.size() && starts[intact + 1] <= len) ++intact;
        const bool on_boundary = (starts[intact] == len);
        if (!on_boundary) {
            EXPECT_THROW((void)read_wal(posix_vfs(), path, WalReadMode::kStrict),
                         CorruptStateError)
                << "strict accepted truncation at " << len;
        }
        // Recover mode drops exactly the torn tail and keeps every
        // record whose frame fully fits.
        const WalContents c = read_wal(posix_vfs(), path, WalReadMode::kRecover);
        EXPECT_EQ(c.records.size(), intact) << "truncation at " << len;
        EXPECT_EQ(c.valid_size, starts[intact]) << "truncation at " << len;
        EXPECT_EQ(c.bytes_discarded, len - starts[intact]);
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, FlippedCrcByteOnFinalRecordIsTornNotFatal) {
    const std::string path = temp_path("walfuzz_crc_tail.log");
    std::string bytes = build_wal_bytes(path, 3);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    atomic_write_file(posix_vfs(), path, bytes);
    EXPECT_THROW((void)read_wal(posix_vfs(), path, WalReadMode::kStrict), CorruptStateError);
    const WalContents c = read_wal(posix_vfs(), path, WalReadMode::kRecover);
    EXPECT_EQ(c.records.size(), 2u);  // final record dropped as torn
    EXPECT_GT(c.bytes_discarded, 0u);
    std::remove(path.c_str());
}

TEST(WalFuzz, FlippedByteInInteriorRecordIsFatalInBothModes) {
    const std::string path = temp_path("walfuzz_crc_mid.log");
    std::string bytes = build_wal_bytes(path, 3);
    const WalContents whole = read_wal(posix_vfs(), path, WalReadMode::kStrict);
    // Corrupt a payload byte of the FIRST record: damage before the tail
    // is real corruption, not a crash artifact.
    const std::size_t pos = static_cast<std::size_t>(whole.records[0].file_offset) + 6;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x80);
    atomic_write_file(posix_vfs(), path, bytes);
    for (WalReadMode mode : {WalReadMode::kStrict, WalReadMode::kRecover}) {
        try {
            (void)read_wal(posix_vfs(), path, mode);
            FAIL() << "expected CorruptStateError";
        } catch (const CorruptStateError& e) {
            EXPECT_EQ(e.file(), path);
            EXPECT_GE(e.offset(), whole.records[0].file_offset);
            EXPECT_LT(e.offset(), whole.records[1].file_offset);
        }
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, MixedVersionHeaderIsRejected) {
    const std::string path = temp_path("walfuzz_ver.log");
    std::string bytes = build_wal_bytes(path, 1);
    bytes[8] = static_cast<char>(kWalVersion + 9);
    // Re-seal the header CRC so version alone is at fault.
    WireWriter crc;
    crc.put_u32(crc32(std::string_view(bytes).substr(0, 28)));
    bytes.replace(28, 4, crc.bytes());
    atomic_write_file(posix_vfs(), path, bytes);
    try {
        (void)read_wal(posix_vfs(), path, WalReadMode::kRecover);
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 8u);
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, BadMagicIsRejectedAtOffsetZero) {
    const std::string path = temp_path("walfuzz_magic.log");
    std::string bytes = build_wal_bytes(path, 1);
    bytes[0] = 'X';
    atomic_write_file(posix_vfs(), path, bytes);
    try {
        (void)read_wal(posix_vfs(), path, WalReadMode::kRecover);
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 0u);
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, OversizedLengthPrefixIsRejected) {
    const std::string path = temp_path("walfuzz_len.log");
    std::string bytes = build_wal_bytes(path, 0);
    // Claim a ludicrous record length; must be rejected without trying
    // to allocate or read that much.
    WireWriter w;
    w.put_u32(0x7FFFFFFFU);
    bytes += w.bytes();
    bytes += std::string(64, 'q');
    atomic_write_file(posix_vfs(), path, bytes);
    EXPECT_THROW((void)read_wal(posix_vfs(), path, WalReadMode::kStrict), CorruptStateError);
    std::remove(path.c_str());
}

TEST(WalFuzz, RecordStreamReportsOffsetsFromItsBase) {
    // A shipped run of records starts mid-file: every record offset and
    // every error offset is its position in the source file, base_offset
    // plus its position in the run.
    constexpr std::uint64_t kBase = 1000;
    const std::string label = "shipped generation 3";
    std::vector<std::string> frames;
    for (std::size_t i = 0; i < 3; ++i) {
        WalRecord rec;
        rec.kind = i == 1 ? WalRecordKind::kShed : WalRecordKind::kDecision;
        rec.seq = 40 + i;
        rec.request = sample_request(static_cast<std::int64_t>(i));
        if (i == 2) {
            rec.admitted = true;
            rec.sites.push_back(core::Site{CloudletId{1}, 2});
        }
        frames.push_back(encode_wal_record(rec));
    }
    const std::string whole = frames[0] + frames[1] + frames[2];
    const std::vector<WalRecord> back = decode_wal_record_stream(whole, label, kBase);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].file_offset, kBase);
    EXPECT_EQ(back[1].file_offset, kBase + frames[0].size());
    EXPECT_EQ(back[2].file_offset, kBase + frames[0].size() + frames[1].size());
    EXPECT_EQ(back[2].seq, 42u);

    const auto expect_corrupt_at = [&](const std::string& bytes, std::uint64_t offset,
                                       const char* what) {
        try {
            (void)decode_wal_record_stream(bytes, label, kBase);
            FAIL() << what << " decoded";
        } catch (const CorruptStateError& e) {
            EXPECT_EQ(e.file(), label) << what;
            EXPECT_EQ(e.offset(), offset) << what;
        }
    };
    const auto flip_last = [](std::string bytes) {
        bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
        return bytes;
    };
    expect_corrupt_at(frames[0] + frames[1].substr(0, 2), kBase + frames[0].size(),
                      "truncated length prefix");
    expect_corrupt_at(frames[0] + frames[1].substr(0, 10), kBase + frames[0].size(),
                      "body past the end");
    expect_corrupt_at(flip_last(frames[0]) + frames[1], kBase + frames[0].size() - 4,
                      "CRC mismatch mid-stream");
    expect_corrupt_at(frames[0] + flip_last(frames[1]),
                      kBase + frames[0].size() + frames[1].size() - 4,
                      "CRC mismatch on the last record");
}

TEST(WalFuzz, RandomAppendedGarbageNeverCrashes) {
    std::mt19937_64 rng(987654321);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> length(1, 96);
    const std::string path = temp_path("walfuzz_tailjunk.log");
    const std::string clean = build_wal_bytes(path, 2);
    for (int trial = 0; trial < 100; ++trial) {
        std::string junk(length(rng), '\0');
        for (char& c : junk) c = static_cast<char>(byte(rng));
        atomic_write_file(posix_vfs(), path, clean + junk);
        // Recover mode must either parse the clean prefix (dropping the
        // junk as a torn tail) or reject with a typed error — never UB.
        try {
            const WalContents c = read_wal(posix_vfs(), path, WalReadMode::kRecover);
            EXPECT_GE(c.records.size(), 2u);
            EXPECT_LE(c.valid_size, clean.size() + junk.size());
        } catch (const CorruptStateError&) {
            // Acceptable: junk that forms an interior-looking anomaly.
        }
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, AppendToTruncatesTornTailAndContinues) {
    const std::string path = temp_path("walfuzz_appendto.log");
    const std::string bytes = build_wal_bytes(path, 3);
    // Tear the last record in half.
    const WalContents whole = read_wal(posix_vfs(), path, WalReadMode::kStrict);
    const std::uint64_t keep =
        whole.records[2].file_offset + 5;  // mid final record
    atomic_write_file(posix_vfs(), path, std::string_view(bytes).substr(0, keep));

    const WalContents torn = read_wal(posix_vfs(), path, WalReadMode::kRecover);
    ASSERT_EQ(torn.records.size(), 2u);
    WalWriter w = WalWriter::append_to(posix_vfs(), path, torn.valid_size);
    WalRecord rec;
    rec.kind = WalRecordKind::kShed;
    rec.seq = 42;
    rec.request = sample_request(42);
    w.append(rec);
    w.close();

    const WalContents healed = read_wal(posix_vfs(), path, WalReadMode::kStrict);
    ASSERT_EQ(healed.records.size(), 3u);
    EXPECT_EQ(healed.records[2].seq, 42u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace vnfr::serve
