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

/// Checks the header at the front of `bytes` and returns its config
/// digest.
std::uint64_t parse_header(std::string_view bytes, const std::string& label) {
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
    const std::uint64_t config_digest = r.get_u64("ledger config digest");
    if (r.get_u32("ledger header CRC") != crc32(bytes.substr(0, kLedgerHeaderSize - 4))) {
        throw CorruptStateError(label, kLedgerHeaderSize - 4, "ledger header CRC mismatch");
    }
    return config_digest;
}

/// Walks the records after the header of `bytes` strictly, decoding each
/// into `rec` before handing it to `on_record`. Returns the record count.
std::uint64_t scan_records(std::string_view bytes, const std::string& label,
                           std::uint64_t cloudlets,
                           const std::function<void(AdmittedRecord&)>& on_record) {
    std::uint64_t count = 0;
    // One reader walks every payload, so a record costs no label copy.
    WireReader payload_reader({}, label);
    AdmittedRecord rec;
    (void)scan_frames(bytes, kLedgerHeaderSize, 0, label, WalReadMode::kStrict,
                      [&](std::uint64_t record_offset, std::string_view payload) {
                          payload_reader.reset(payload, record_offset + 4);
                          decode_admitted_record(payload_reader, label, cloudlets, rec);
                          payload_reader.require_end("ledger record payload");
                          ++count;
                          on_record(rec);
                      });
    return count;
}

/// Reads the first `length` bytes of the ledger at `path`, after the
/// checks every reader of `prefix` makes first: the file exists, holds at
/// least prefix.bytes bytes, and its header carries prefix.config_digest.
FileRange open_prefix(Vfs& vfs, const std::string& path, const LedgerPrefix& prefix,
                      std::uint64_t length) {
    const std::string named = std::to_string(prefix.bytes);
    if (!file_exists(vfs, path)) {
        throw CorruptStateError(path, 0,
                                "admitted ledger missing; the snapshot names " + named +
                                    " bytes of it");
    }
    FileRange range = vfs.read_range(path, 0, length);
    if (range.file_size < prefix.bytes) {
        throw CorruptStateError(path, range.file_size,
                                "admitted ledger ends before the " + named +
                                    " bytes the snapshot names");
    }
    if (parse_header(range.bytes, path) != prefix.config_digest) {
        throw CorruptStateError(path, kLedgerHeaderSize - 12,
                                "ledger config digest disagrees with the snapshot's");
    }
    return range;
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

LedgerPrefix ledger_prefix_of(const ControllerSnapshot& snap) {
    return LedgerPrefix{snap.ledger_bytes, snap.metrics.admitted, snap.config_digest,
                        snap.cloudlets};
}

void check_ledger_header(Vfs& vfs, const std::string& path, const LedgerPrefix& prefix) {
    (void)open_prefix(vfs, path, prefix, kLedgerHeaderSize);
}

std::uint64_t read_ledger_prefix(Vfs& vfs, const std::string& path, const LedgerPrefix& prefix,
                                 const std::function<void(AdmittedRecord&)>& on_record) {
    const FileRange range = open_prefix(vfs, path, prefix, prefix.bytes);
    const std::uint64_t records = scan_records(range.bytes, path, prefix.cloudlets, on_record);
    if (records != prefix.records) {
        throw CorruptStateError(path, prefix.bytes,
                                "ledger prefix holds " + std::to_string(records) +
                                    " records but the snapshot counts " +
                                    std::to_string(prefix.records) + " admitted");
    }
    return range.file_size - prefix.bytes;
}

LedgerContents parse_ledger_bytes(std::string_view bytes, const std::string& label,
                                  std::uint64_t cloudlets) {
    LedgerContents out;
    out.config_digest = parse_header(bytes, label);
    (void)scan_records(bytes, label, cloudlets,
                       [&](AdmittedRecord& rec) { out.records.push_back(std::move(rec)); });
    return out;
}

LedgerContents load_ledger(Vfs& vfs, const std::string& path,
                           const ControllerSnapshot& snap) {
    const LedgerPrefix prefix = ledger_prefix_of(snap);
    LedgerContents out;
    out.config_digest = prefix.config_digest;
    // Every frame takes at least 36 bytes, which bounds what a lying
    // admitted counter can make the reservation cost.
    const std::uint64_t most_records =
        prefix.bytes > kLedgerHeaderSize ? (prefix.bytes - kLedgerHeaderSize) / 36 : 0;
    out.records.reserve(static_cast<std::size_t>(std::min(prefix.records, most_records)));
    out.tail_bytes = read_ledger_prefix(
        vfs, path, prefix, [&](AdmittedRecord& rec) { out.records.push_back(std::move(rec)); });
    return out;
}

}  // namespace vnfr::serve
