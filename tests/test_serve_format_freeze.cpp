// Byte-for-byte freeze of the serve layer's on-disk and on-wire formats.
//
// Each encoder runs over a fixed synthetic input and the FNV-1a digest of
// its output is compared with a constant recorded from the reference
// encoder. Any change to field order, width, endianness, framing or CRC
// placement changes a digest; the round-trip checks additionally prove
// the decoders still read exactly what the encoders write. A deliberate
// format change must bump the file's version constant and re-record the
// digests here. Superseded versions the decoder still reads (the
// version-1 snapshot) are kept as byte images written by their encoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/faults/faulty_vfs.hpp"
#include "serve/ledger.hpp"
#include "serve/replication/ship_transport.hpp"
#include "serve/snapshot.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve {
namespace {

/// FNV-1a 64 over raw bytes.
std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// Bytes of a lowercase hex string.
std::string from_hex(std::string_view hex) {
    std::string bytes;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        bytes.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
    }
    return bytes;
}

// encode_snapshot(synthetic_snapshot(0)) and (1) as the version-1 encoder
// wrote them: the admitted list inline, before the CRC trailer.
constexpr std::string_view kV1OnsiteImage =
    "564e4652534e50310100000000efcdab8967452301030000000000000005000000000000"
    "000c00000000000000090000000000000003000000000000000600000000000000020000"
    "00000000000000000000a04440343333333333d33f0000000000000000555555555555d5"
    "3f555555555555e53f000000000000f03f555555555555f53fabaaaaaaaaaa0240555555"
    "55555505400000000000000840abaaaaaaaaaa0a405555555555550d40abaaaaaaaaaa12"
    "4000000000000014405555555555551540abaaaaaaaaaa16400000000000001840000000"
    "000000004000000000000008400000000000001040000000000000144000000000000018"
    "400000000000001040000000000000184000000000000020400000000000002440000000"
    "00000028400000000000001840000000000000224000000000000028400000000000002e"
    "400000000000003240110000000000000003000000000000001300000000000000170000"
    "0000000000280000000000000003000000000000000300000000000000eb030000000000"
    "000000000000002940010000000000000000000000020000000000000008000000000000"
    "00f003000000000000000000000000344002000000010000000000000001000000000000"
    "00020000000000000003000000000000001000000000000000fcffffffffffffff000000"
    "000080214003000000020000000000000001000000000000000000000000000000010000"
    "000000000001000000000000000200000000000000b5cefaf2";

constexpr std::string_view kV1OffsiteImage =
    "564e4652534e50310100000001eecdab8967452301030000000000000005000000000000"
    "000c00000000000000090000000000000003000000000000000600000000000000020000"
    "00000000000000000000a04440343333333333d33f0000000000000000555555555555d5"
    "3f555555555555e53f000000000000f03f555555555555f53fabaaaaaaaaaa0240555555"
    "55555505400000000000000840abaaaaaaaaaa0a405555555555550d40abaaaaaaaaaa12"
    "4000000000000014405555555555551540abaaaaaaaaaa16400000000000001840000000"
    "000000004000000000000008400000000000001040000000000000144000000000000018"
    "400000000000001040000000000000184000000000000020400000000000002440000000"
    "00000028400000000000001840000000000000224000000000000028400000000000002e"
    "400000000000003240110000000000000003000000000000001300000000000000170000"
    "0000000000280000000000000003000000000000000300000000000000eb030000000000"
    "000000000000002940010000000000000000000000020000000000000008000000000000"
    "00f003000000000000000000000000344002000000010000000000000001000000000000"
    "00020000000000000003000000000000001000000000000000fcffffffffffffff000000"
    "000080214003000000020000000000000001000000000000000000000000000000010000"
    "000000000001000000000000000200000000000000286d4be7";

ControllerSnapshot synthetic_snapshot(std::uint8_t scheme) {
    ControllerSnapshot snap;
    snap.scheme = scheme;
    snap.config_digest = 0x0123456789ABCDEFULL ^ scheme;
    snap.cloudlets = 3;
    snap.horizon = 5;
    snap.wal_seq = 12;
    snap.metrics.processed = 9;
    snap.metrics.admitted = 3;
    snap.metrics.rejected = 6;
    snap.metrics.shed = 2;
    snap.metrics.revenue = 41.25;
    snap.metrics.shed_revenue = 0.1 + 0.2;
    snap.lambda.assign(snap.cloudlets, std::vector<double>(snap.horizon));
    snap.usage.resize(snap.cloudlets * snap.horizon);
    for (std::size_t j = 0; j < snap.cloudlets; ++j) {
        for (std::size_t t = 0; t < snap.horizon; ++t) {
            const auto slot = static_cast<double>(t);
            snap.lambda[j][t] = static_cast<double>(j * 7 + t) / 3.0 + 1e-300 * slot;
            snap.usage[j * snap.horizon + t] = static_cast<double>((j + 1) * (t + 2));
        }
    }
    snap.covered_watermark = 17;
    snap.covered_sparse = {19, 23, 40};
    snap.admitted.push_back(AdmittedRecord{3, 1003, 12.5, {{0, 2}}});
    snap.admitted.push_back(AdmittedRecord{8, 1008, 20.0, {{1, 1}, {2, 3}}});
    snap.admitted.push_back(AdmittedRecord{16, -4, 8.75, {{2, 1}, {0, 1}, {1, 2}}});
    return snap;
}

/// synthetic_snapshot's ledger file: header plus its admitted records.
std::string synthetic_ledger(std::uint8_t scheme) {
    std::string bytes = encode_ledger_header(synthetic_snapshot(scheme).config_digest);
    for (const AdmittedRecord& rec : synthetic_snapshot(scheme).admitted) {
        bytes += encode_ledger_record(rec);
    }
    return bytes;
}

/// synthetic_snapshot in version 2: the admitted list moves to the
/// ledger, which the snapshot names by length.
ControllerSnapshot synthetic_snapshot_v2(std::uint8_t scheme) {
    ControllerSnapshot snap = synthetic_snapshot(scheme);
    snap.admitted.clear();
    snap.ledger_bytes = synthetic_ledger(scheme).size();
    return snap;
}

void expect_same_snapshot(const ControllerSnapshot& a, const ControllerSnapshot& b) {
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.config_digest, b.config_digest);
    EXPECT_EQ(a.cloudlets, b.cloudlets);
    EXPECT_EQ(a.horizon, b.horizon);
    EXPECT_EQ(a.wal_seq, b.wal_seq);
    EXPECT_EQ(a.metrics.processed, b.metrics.processed);
    EXPECT_EQ(a.metrics.admitted, b.metrics.admitted);
    EXPECT_EQ(a.metrics.rejected, b.metrics.rejected);
    EXPECT_EQ(a.metrics.shed, b.metrics.shed);
    EXPECT_EQ(a.metrics.revenue, b.metrics.revenue);
    EXPECT_EQ(a.metrics.shed_revenue, b.metrics.shed_revenue);
    EXPECT_EQ(a.lambda, b.lambda);
    EXPECT_EQ(a.usage, b.usage);
    EXPECT_EQ(a.covered_watermark, b.covered_watermark);
    EXPECT_EQ(a.covered_sparse, b.covered_sparse);
    EXPECT_EQ(a.ledger_bytes, b.ledger_bytes);
    ASSERT_EQ(a.admitted.size(), b.admitted.size());
    for (std::size_t i = 0; i < a.admitted.size(); ++i) {
        EXPECT_EQ(a.admitted[i].seq, b.admitted[i].seq);
        EXPECT_EQ(a.admitted[i].request_id, b.admitted[i].request_id);
        EXPECT_EQ(a.admitted[i].payment, b.admitted[i].payment);
        EXPECT_EQ(a.admitted[i].sites, b.admitted[i].sites);
    }
}

workload::Request synthetic_request() {
    workload::Request req;
    req.id = RequestId{77};
    req.vnf = VnfTypeId{2};
    req.requirement = 0.995;
    req.arrival = 3;
    req.duration = 4;
    req.payment = 31.5;
    req.source = NodeId{9};
    return req;
}

WalRecord decision_record() {
    WalRecord rec;
    rec.kind = WalRecordKind::kDecision;
    rec.seq = 42;
    rec.request = synthetic_request();
    rec.admitted = true;
    rec.sites = {core::Site{CloudletId{1}, 2}, core::Site{CloudletId{4}, 1}};
    return rec;
}

WalRecord shed_record() {
    WalRecord rec;
    rec.kind = WalRecordKind::kShed;
    rec.seq = 43;
    rec.request = synthetic_request();
    rec.request.payment = 0.25;
    return rec;
}

TEST(ServeFormatFreeze, SnapshotBytesAreFrozen) {
    // The version-1 images the parent encoder wrote still hash to its
    // digests and still decode to the snapshot they were encoded from.
    const std::string onsite = from_hex(kV1OnsiteImage);
    const std::string offsite = from_hex(kV1OffsiteImage);
    EXPECT_EQ(onsite.size(), 565u);
    EXPECT_EQ(offsite.size(), 565u);
    EXPECT_EQ(fnv1a(onsite), 0xfc0b59224155cc1cULL);
    EXPECT_EQ(fnv1a(offsite), 0x289aaff99b44bbe4ULL);
    expect_same_snapshot(decode_snapshot(onsite, "onsite"), synthetic_snapshot(0));
    expect_same_snapshot(decode_snapshot(offsite, "offsite"), synthetic_snapshot(1));
}

TEST(ServeFormatFreeze, SnapshotV2BytesAreFrozen) {
    const std::string onsite = encode_snapshot(synthetic_snapshot_v2(0));
    const std::string offsite = encode_snapshot(synthetic_snapshot_v2(1));
    EXPECT_EQ(onsite.size(), 385u);
    EXPECT_EQ(offsite.size(), 385u);
    EXPECT_EQ(fnv1a(onsite), 0xf919fbc3090e15d7ULL);
    EXPECT_EQ(fnv1a(offsite), 0x3336b0a7448a92d9ULL);
    // The decoder reads back exactly what was written.
    expect_same_snapshot(decode_snapshot(onsite, "onsite"), synthetic_snapshot_v2(0));
    EXPECT_EQ(encode_snapshot(decode_snapshot(onsite, "onsite")), onsite);
    EXPECT_EQ(encode_snapshot(decode_snapshot(offsite, "offsite")), offsite);
}

TEST(ServeFormatFreeze, LedgerHeaderBytesAreFrozen) {
    FaultyVfs vfs;
    const std::string path = "/disk/snapshot.ledger";
    const AdmittedRecord record = synthetic_snapshot(0).admitted[1];
    {
        FramedFileWriter writer = create_ledger(vfs, path, 0xFEEDFACECAFEBEEFULL);
        stage_ledger_record(writer, record);
        writer.commit();
    }
    const std::string file = vfs.read_file(path);
    ASSERT_GE(file.size(), kLedgerHeaderSize);
    const std::string_view header = std::string_view(file).substr(0, kLedgerHeaderSize);
    EXPECT_EQ(header, encode_ledger_header(0xFEEDFACECAFEBEEFULL));
    EXPECT_EQ(fnv1a(header), 0xdcda37d58887b79aULL);
    EXPECT_EQ(std::string_view(file).substr(kLedgerHeaderSize), encode_ledger_record(record));
    const LedgerContents back = parse_ledger_bytes(file, path, 3);
    EXPECT_EQ(back.config_digest, 0xFEEDFACECAFEBEEFULL);
    ASSERT_EQ(back.records.size(), 1u);
    EXPECT_EQ(back.records[0].sites, record.sites);
}

TEST(ServeFormatFreeze, LedgerRecordBytesAreFrozen) {
    // A ledger record is the version-1 inline record, CRC-framed.
    const std::vector<AdmittedRecord> records = synthetic_snapshot(0).admitted;
    const std::string one_site = encode_ledger_record(records[0]);
    const std::string three_sites = encode_ledger_record(records[2]);
    EXPECT_EQ(one_site.size(), 52u);
    EXPECT_EQ(three_sites.size(), 84u);
    EXPECT_EQ(fnv1a(one_site), 0xb05e0e1b8cfb154fULL);
    EXPECT_EQ(fnv1a(three_sites), 0xd8b444e0de22c666ULL);
    const std::string ledger = synthetic_ledger(0);
    EXPECT_EQ(ledger.size(), synthetic_snapshot_v2(0).ledger_bytes);
    const LedgerContents back = parse_ledger_bytes(ledger, "ledger", 3);
    ASSERT_EQ(back.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(encode_ledger_record(back.records[i]), encode_ledger_record(records[i]));
    }
}

TEST(ServeFormatFreeze, WalRecordBytesAreFrozen) {
    const std::string decision = encode_wal_record(decision_record());
    const std::string shed = encode_wal_record(shed_record());
    EXPECT_EQ(decision.size(), 111u);
    EXPECT_EQ(shed.size(), 73u);
    EXPECT_EQ(fnv1a(decision), 0xb6da37b55322cef7ULL);
    EXPECT_EQ(fnv1a(shed), 0xa2a0cc65c6847f72ULL);
    const std::vector<WalRecord> back =
        decode_wal_record_stream(decision + shed, "stream", kWalHeaderSize);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(encode_wal_record(back[0]), decision);
    EXPECT_EQ(encode_wal_record(back[1]), shed);
}

TEST(ServeFormatFreeze, WalHeaderBytesAreFrozen) {
    FaultyVfs vfs;
    const std::string path = "/disk/wal-5.log";
    {
        WalWriter writer = WalWriter::create(vfs, path, 5, 0xFEEDFACECAFEBEEFULL);
        writer.append(decision_record());
    }
    const std::string file = vfs.read_file(path);
    ASSERT_GE(file.size(), kWalHeaderSize);
    const std::string_view header = std::string_view(file).substr(0, kWalHeaderSize);
    EXPECT_EQ(fnv1a(header), 0x9e78ebf1133292efULL);
    EXPECT_EQ(std::string_view(file).substr(kWalHeaderSize),
              encode_wal_record(decision_record()));
}

TEST(ServeFormatFreeze, ShipFrameBytesAreFrozen) {
    replication::ShipFrame records;
    records.kind = replication::ShipFrameKind::kRecords;
    records.generation = 7;
    records.start_offset = kWalHeaderSize + 96;
    records.record_count = 2;
    records.payload = encode_wal_record(decision_record()) + encode_wal_record(shed_record());
    replication::ShipFrame rotate;
    rotate.kind = replication::ShipFrameKind::kRotate;
    rotate.generation = 8;
    const std::string records_bytes = replication::encode_ship_frame(records);
    const std::string rotate_bytes = replication::encode_ship_frame(rotate);
    EXPECT_EQ(fnv1a(records_bytes), 0xe14a6715c5a65fe4ULL);
    EXPECT_EQ(fnv1a(rotate_bytes), 0xc38541b73c1615dfULL);
    EXPECT_EQ(replication::encode_ship_frame(replication::decode_ship_frame(records_bytes)),
              records_bytes);
}

}  // namespace
}  // namespace vnfr::serve
