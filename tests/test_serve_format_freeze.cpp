// Byte-for-byte freeze of the serve layer's on-disk and on-wire formats.
//
// Each encoder runs over a fixed synthetic input and the FNV-1a digest of
// its output is compared with a constant recorded from the reference
// encoder. Any change to field order, width, endianness, framing or CRC
// placement changes a digest; the round-trip checks additionally prove
// the decoders still read exactly what the encoders write. A deliberate
// format change must bump the file's version constant and re-record the
// digests here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/replication/ship_transport.hpp"
#include "serve/snapshot.hpp"
#include "serve/vfs.hpp"
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
    const std::string onsite = encode_snapshot(synthetic_snapshot(0));
    const std::string offsite = encode_snapshot(synthetic_snapshot(1));
    EXPECT_EQ(onsite.size(), 565u);
    EXPECT_EQ(offsite.size(), 565u);
    EXPECT_EQ(fnv1a(onsite), 0xfc0b59224155cc1cULL);
    EXPECT_EQ(fnv1a(offsite), 0x289aaff99b44bbe4ULL);
    // The decoder reads back exactly what was written.
    EXPECT_EQ(encode_snapshot(decode_snapshot(onsite, "onsite")), onsite);
    EXPECT_EQ(encode_snapshot(decode_snapshot(offsite, "offsite")), offsite);
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
