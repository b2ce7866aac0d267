#include "serve/ledger.hpp"

#include <algorithm>
#include <cmath>

#include "serve/vfs.hpp"

namespace vnfr::serve {

namespace {

constexpr std::string_view kMagic = "VNFRLDG1";

/// Payload bytes of `record`: seq, request id, payment, site count, sites.
std::size_t payload_size(const AdmittedRecord& record) {
    return 8 + 8 + 8 + 4 + 16 * record.sites.size();
}

void put_payload(WireWriter& w, const AdmittedRecord& record) {
    w.put_u64(record.seq);
    w.put_i64(record.request_id);
    w.put_f64(record.payment);
    w.put_u32(static_cast<std::uint32_t>(record.sites.size()));
    for (const auto& [cloudlet, replicas] : record.sites) {
        w.put_i64(cloudlet);
        w.put_i64(replicas);
    }
}

/// parse_ledger_bytes with room for `expected_records` reserved up front:
/// growing the record vector as it fills costs more than the parse.
LedgerContents parse_ledger(std::string_view bytes, const std::string& label,
                            std::uint64_t cloudlets, std::size_t expected_records) {
    // The header is published atomically, so a short or mangled header is
    // corruption: no crash produces it.
    if (bytes.size() < kLedgerHeaderSize) {
        throw CorruptStateError(label, bytes.size(),
                                "ledger shorter than its 24-byte header");
    }
    WireReader r(bytes, label);
    if (r.get_bytes(kMagic.size(), "ledger magic") != kMagic) {
        throw CorruptStateError(label, 0, "bad magic (not a VNFR admitted ledger)");
    }
    const std::uint32_t version = r.get_u32("ledger version");
    if (version != kLedgerVersion) {
        throw CorruptStateError(label, kMagic.size(),
                                "unsupported ledger version " + std::to_string(version) +
                                    " (expected " + std::to_string(kLedgerVersion) + ")");
    }
    LedgerContents out;
    out.config_digest = r.get_u64("ledger config digest");
    if (r.get_u32("ledger header CRC") != crc32(bytes.substr(0, kLedgerHeaderSize - 4))) {
        throw CorruptStateError(label, kLedgerHeaderSize - 4, "ledger header CRC mismatch");
    }
    out.records.reserve(expected_records);
    // One reader walks every payload, so a record costs no label copy.
    WireReader payload_reader({}, label);
    (void)scan_frames(bytes, kLedgerHeaderSize, label, WalReadMode::kStrict,
                      [&](std::uint64_t record_offset, std::string_view payload) {
                          payload_reader.reset(payload, record_offset + 4);
                          decode_admitted_record(payload_reader, label, cloudlets,
                                                 out.records.emplace_back());
                          payload_reader.require_end("ledger record payload");
                      });
    return out;
}

}  // namespace

std::string ledger_file_path(const std::string& dir) { return dir + "/snapshot.ledger"; }

void decode_admitted_record(WireReader& r, const std::string& label,
                            std::uint64_t cloudlets, AdmittedRecord& rec) {
    rec.seq = r.get_u64("admitted seq");
    rec.request_id = r.get_i64("admitted request id");
    rec.payment = r.get_f64("admitted payment");
    if (!std::isfinite(rec.payment) || rec.payment < 0.0) {
        throw CorruptStateError(label, r.offset() - 8,
                                "admitted payment is not finite and non-negative");
    }
    const std::uint32_t site_count = r.get_u32("site count");
    if (site_count > kMaxFramePayload / 16) {
        throw CorruptStateError(label, r.offset() - 4, "site count out of range");
    }
    rec.sites.resize(site_count);
    for (auto& [cloudlet, replicas] : rec.sites) {
        cloudlet = r.get_i64("site cloudlet");
        replicas = r.get_i64("site replicas");
        if (cloudlet < 0 || static_cast<std::uint64_t>(cloudlet) >= cloudlets) {
            throw CorruptStateError(label, r.offset() - 16, "site cloudlet id out of range");
        }
        if (replicas < 1) {
            throw CorruptStateError(label, r.offset() - 8, "site replica count below 1");
        }
    }
}

std::string encode_ledger_header(std::uint64_t config_digest) {
    WireWriter w(kLedgerHeaderSize);
    w.put_bytes(kMagic);
    w.put_u32(kLedgerVersion);
    w.put_u64(config_digest);
    w.put_crc32();
    return std::move(w).take();
}

std::string encode_ledger_record(const AdmittedRecord& record) {
    WireWriter w(4 + payload_size(record) + 4);
    w.put_u32(static_cast<std::uint32_t>(payload_size(record)));
    put_payload(w, record);
    w.put_crc32(4);
    return std::move(w).take();
}

FramedFileWriter create_ledger(Vfs& vfs, std::string path, std::uint64_t config_digest,
                               const StorageRetryPolicy& retry) {
    return FramedFileWriter::create(vfs, std::move(path), encode_ledger_header(config_digest),
                                    retry);
}

void stage_ledger_record(FramedFileWriter& ledger, const AdmittedRecord& record) {
    (void)ledger.stage_frame(payload_size(record),
                             [&](WireWriter& w) { put_payload(w, record); });
}

LedgerContents parse_ledger_bytes(std::string_view bytes, const std::string& label,
                                  std::uint64_t cloudlets) {
    return parse_ledger(bytes, label, cloudlets, 0);
}

LedgerContents load_ledger(Vfs& vfs, const std::string& path,
                           const ControllerSnapshot& snap) {
    const std::string named = std::to_string(snap.ledger_bytes);
    if (!file_exists(vfs, path)) {
        throw CorruptStateError(path, 0,
                                "admitted ledger missing; the snapshot names " + named +
                                    " bytes of it");
    }
    const std::string bytes = read_file(vfs, path);
    if (bytes.size() < snap.ledger_bytes) {
        throw CorruptStateError(path, bytes.size(),
                                "admitted ledger ends before the " + named +
                                    " bytes the snapshot names");
    }
    // Every frame takes at least 36 bytes, which bounds what a lying
    // admitted counter can make the reservation cost.
    const std::uint64_t most_records =
        snap.ledger_bytes > kLedgerHeaderSize ? (snap.ledger_bytes - kLedgerHeaderSize) / 36 : 0;
    LedgerContents out = parse_ledger(
        std::string_view(bytes).substr(0, snap.ledger_bytes), path, snap.cloudlets,
        static_cast<std::size_t>(std::min(snap.metrics.admitted, most_records)));
    if (out.config_digest != snap.config_digest) {
        throw CorruptStateError(path, kLedgerHeaderSize - 12,
                                "ledger config digest disagrees with the snapshot's");
    }
    if (out.records.size() != snap.metrics.admitted) {
        throw CorruptStateError(path, snap.ledger_bytes,
                                "ledger prefix holds " + std::to_string(out.records.size()) +
                                    " records but the snapshot counts " +
                                    std::to_string(snap.metrics.admitted) + " admitted");
    }
    out.tail_bytes = bytes.size() - snap.ledger_bytes;
    return out;
}

}  // namespace vnfr::serve
