#include "serve/wal.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace vnfr::serve {

namespace {

constexpr std::string_view kMagic = "VNFRWAL1";
constexpr std::uint64_t kHeaderSize = kWalHeaderSize;

/// Payload bytes of `record`: kind, seq and the seven request fields, then
/// for a decision the outcome bytes, site count and sites.
std::size_t payload_size(const WalRecord& record) {
    std::size_t size = 1 + 8 + 7 * 8;
    if (record.kind == WalRecordKind::kDecision) size += 1 + 1 + 4 + 16 * record.sites.size();
    return size;
}

/// Appends the payload bytes of `record` (payload_size(record) of them).
void put_payload(WireWriter& w, const WalRecord& record) {
    w.put_u8(static_cast<std::uint8_t>(record.kind));
    w.put_u64(record.seq);
    w.put_i64(record.request.id.value);
    w.put_i64(record.request.vnf.value);
    w.put_f64(record.request.requirement);
    w.put_i64(record.request.arrival);
    w.put_i64(record.request.duration);
    w.put_f64(record.request.payment);
    w.put_i64(record.request.source.value);
    if (record.kind == WalRecordKind::kDecision) {
        w.put_u8(record.admitted ? 1 : 0);
        w.put_u8(static_cast<std::uint8_t>(record.reject_reason));
        w.put_u32(static_cast<std::uint32_t>(record.sites.size()));
        for (const core::Site& site : record.sites) {
            w.put_i64(site.cloudlet.value);
            w.put_i64(site.replicas);
        }
    }
}

/// Appends `record` framed as u32 length | payload | u32 CRC(payload).
void put_framed_record(WireWriter& w, const WalRecord& record) {
    w.put_u32(static_cast<std::uint32_t>(payload_size(record)));
    const std::size_t payload_start = w.size();
    put_payload(w, record);
    w.put_crc32(payload_start);
}

/// Reads the little-endian u32 at `at`; the caller has checked the bounds.
std::uint32_t load_u32(std::string_view bytes, std::uint64_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return wire_detail::to_le(v);  // a byte swap is its own inverse
}

WalRecord decode_payload(std::string_view payload, const std::string& label,
                         std::uint64_t base_offset) {
    WireReader r(payload, label, base_offset);
    WalRecord rec;
    const std::uint8_t kind = r.get_u8("record kind");
    if (kind != static_cast<std::uint8_t>(WalRecordKind::kDecision) &&
        kind != static_cast<std::uint8_t>(WalRecordKind::kShed)) {
        throw CorruptStateError(label, r.offset() - 1,
                                "unknown WAL record kind " + std::to_string(kind));
    }
    rec.kind = static_cast<WalRecordKind>(kind);
    rec.seq = r.get_u64("record seq");
    rec.request.id = RequestId{r.get_i64("request id")};
    rec.request.vnf = VnfTypeId{r.get_i64("request vnf")};
    rec.request.requirement = r.get_f64("request requirement");
    rec.request.arrival = static_cast<TimeSlot>(r.get_i64("request arrival"));
    rec.request.duration = static_cast<TimeSlot>(r.get_i64("request duration"));
    rec.request.payment = r.get_f64("request payment");
    rec.request.source = NodeId{r.get_i64("request source")};
    if (!std::isfinite(rec.request.requirement) || !std::isfinite(rec.request.payment)) {
        throw CorruptStateError(label, r.offset(), "non-finite request field");
    }
    if (rec.kind == WalRecordKind::kDecision) {
        const std::uint8_t admitted = r.get_u8("admitted flag");
        if (admitted > 1) {
            throw CorruptStateError(label, r.offset() - 1,
                                    "admitted flag is neither 0 nor 1");
        }
        rec.admitted = admitted == 1;
        const std::uint8_t reason = r.get_u8("reject reason");
        if (reason > static_cast<std::uint8_t>(core::RejectReason::kNoCapacity)) {
            throw CorruptStateError(label, r.offset() - 1,
                                    "reject reason byte out of range");
        }
        rec.reject_reason = static_cast<core::RejectReason>(reason);
        const std::uint32_t site_count = r.get_u32("site count");
        if (site_count > kMaxFramePayload / 16) {
            throw CorruptStateError(label, r.offset() - 4, "site count out of range");
        }
        rec.sites.resize(site_count);
        for (core::Site& site : rec.sites) {
            site.cloudlet = CloudletId{r.get_i64("site cloudlet")};
            site.replicas = static_cast<int>(r.get_i64("site replicas"));
        }
    }
    r.require_end("WAL record payload");
    return rec;
}

std::string encode_header(std::uint64_t wal_seq, std::uint64_t config_digest) {
    WireWriter w(kHeaderSize);
    w.put_bytes(kMagic);
    w.put_u32(kWalVersion);
    w.put_u64(wal_seq);
    w.put_u64(config_digest);
    w.put_crc32();
    return std::move(w).take();
}

WalContents parse_wal_bytes(std::string_view bytes, const std::string& path,
                            WalReadMode mode) {
    // The header is created atomically (temp + rename), so a short or
    // mangled header is corruption in every mode — no crash produces it.
    if (bytes.size() < kHeaderSize) {
        throw CorruptStateError(path, bytes.size(),
                                "WAL shorter than its 32-byte header");
    }
    WireReader h(bytes, path);
    if (h.get_bytes(kMagic.size(), "WAL magic") != kMagic) {
        throw CorruptStateError(path, 0, "bad magic (not a VNFR WAL)");
    }
    const std::uint32_t version = h.get_u32("WAL version");
    if (version != kWalVersion) {
        throw CorruptStateError(path, kMagic.size(),
                                "unsupported WAL version " + std::to_string(version) +
                                    " (expected " + std::to_string(kWalVersion) + ")");
    }
    WalContents out;
    out.wal_seq = h.get_u64("WAL generation");
    out.config_digest = h.get_u64("WAL config digest");
    const std::uint32_t header_crc = h.get_u32("WAL header CRC");
    if (header_crc != crc32(std::string_view(bytes).substr(0, kHeaderSize - 4))) {
        throw CorruptStateError(path, kHeaderSize - 4, "WAL header CRC mismatch");
    }

    const FrameScan scan = scan_frames(
        bytes, kHeaderSize, 0, path, mode,
        [&](std::uint64_t record_offset, std::string_view payload) {
            WalRecord rec = decode_payload(payload, path, record_offset + 4);
            rec.file_offset = record_offset;
            out.records.push_back(std::move(rec));
        });
    out.bytes_discarded = scan.bytes_discarded;
    out.records_discarded = scan.records_discarded;
    out.valid_size = scan.valid_size;
    return out;
}

}  // namespace

std::string wal_file_path(const std::string& dir, std::uint64_t generation) {
    return dir + "/wal-" + std::to_string(generation) + ".log";
}

std::vector<std::uint64_t> list_wal_generations(Vfs& vfs, const std::string& dir) {
    constexpr std::string_view kPrefix = "wal-";
    constexpr std::string_view kSuffix = ".log";
    std::vector<std::uint64_t> gens;
    for (const std::string& name : vfs.list_dir(dir)) {
        if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) continue;
        const char* const first = name.data() + kPrefix.size();
        const char* const last = name.data() + name.size() - kSuffix.size();
        if (first >= last || (*first == '0' && last - first > 1)) continue;
        std::uint64_t gen = 0;
        const auto [ptr, ec] = std::from_chars(first, last, gen);
        if (ec == std::errc() && ptr == last) gens.push_back(gen);
    }
    // list_dir sorts names as strings, which puts wal-10 before wal-9.
    std::sort(gens.begin(), gens.end());
    return gens;
}

std::string encode_wal_record(const WalRecord& record) {
    WireWriter w(4 + payload_size(record) + 4);
    put_framed_record(w, record);
    return std::move(w).take();
}

std::vector<WalRecord> decode_wal_record_stream(std::string_view bytes,
                                                const std::string& label,
                                                std::uint64_t base_offset) {
    std::vector<WalRecord> records;
    (void)scan_frames(bytes, 0, base_offset, label, WalReadMode::kStrict,
                      [&](std::uint64_t record_offset, std::string_view payload) {
                          WalRecord rec = decode_payload(payload, label, record_offset + 4);
                          rec.file_offset = record_offset;
                          records.push_back(std::move(rec));
                      });
    return records;
}

WalContents read_wal(Vfs& vfs, const std::string& path, WalReadMode mode) {
    return parse_wal_bytes(read_file(vfs, path), path, mode);
}

FrameScan scan_frames(std::string_view bytes, std::uint64_t start,
                      std::uint64_t base_offset, const std::string& label, WalReadMode mode,
                      const std::function<void(std::uint64_t, std::string_view)>& on_payload) {
    FrameScan scan;
    std::uint64_t pos = start;
    while (pos < bytes.size()) {
        const std::uint64_t record_start = pos;
        const std::uint64_t remaining = bytes.size() - pos;
        // A record that cannot even state its length, or whose stated
        // extent runs past EOF, by definition touches the end of file:
        // in recover mode that is the torn tail of a crashed append.
        // Strict mode reports the anomaly at `at` instead.
        const auto torn = [&](const std::string& what, std::uint64_t at) -> bool {
            if (mode == WalReadMode::kRecover) {
                scan.bytes_discarded = bytes.size() - record_start;
                // A crash tears at most the final append: one fragment.
                scan.records_discarded = 1;
                return true;
            }
            throw CorruptStateError(label, base_offset + at, what);
        };
        if (remaining < 4) {
            if (torn("truncated record length prefix", record_start)) break;
        }
        const std::uint32_t len = load_u32(bytes, pos);
        if (len > kMaxFramePayload) {
            // Implausible length: if it also runs past EOF it is a torn
            // tail; a plausible in-file extent with a garbage length
            // cannot happen (lengths are CRC-checked via the payload).
            if (4ULL + len + 4ULL > remaining) {
                if (torn("record length runs past end of file", record_start)) break;
            }
            throw CorruptStateError(label, base_offset + record_start,
                                    "record length " + std::to_string(len) +
                                        " exceeds the sanity bound");
        }
        if (4ULL + len + 4ULL > remaining) {
            if (torn("record body runs past end of file", record_start)) break;
        }
        const std::string_view payload = bytes.substr(pos + 4, len);
        const std::uint64_t crc_offset = pos + 4 + len;
        if (load_u32(bytes, crc_offset) != crc32(payload)) {
            // CRC failure on the final record is a torn overwrite; before
            // the tail it is corruption in every mode.
            if (crc_offset + 4 == bytes.size()) {
                if (torn("record CRC mismatch", crc_offset)) break;
            }
            throw CorruptStateError(label, base_offset + crc_offset, "record CRC mismatch");
        }
        on_payload(base_offset + record_start, payload);
        pos = crc_offset + 4;
    }
    scan.valid_size = bytes.size() - scan.bytes_discarded;
    return scan;
}

FramedFileWriter FramedFileWriter::create(Vfs& vfs, std::string path,
                                          std::string_view header,
                                          const StorageRetryPolicy& retry) {
    std::uint64_t retries = 0;
    with_storage_retries(
        vfs, retry, [&] { atomic_write_file(vfs, path, header); }, &retries);
    VfsFdGuard guard(vfs, vfs.open_append(path));
    FramedFileWriter writer(vfs, retry, std::move(path), guard.release(), header.size());
    writer.transient_retries_ = retries;
    return writer;
}

FramedFileWriter FramedFileWriter::append_to(Vfs& vfs, std::string path,
                                             std::uint64_t valid_size,
                                             const StorageRetryPolicy& retry) {
    VfsFdGuard guard(vfs, vfs.open_append(path));
    // Drop any tail before new appends so the file stays a clean
    // sequence of intact records (O_APPEND then lands writes at the new
    // end of file).
    vfs.ftruncate(guard.get(), path, valid_size);
    return FramedFileWriter(vfs, retry, std::move(path), guard.release(), valid_size);
}

FramedFileWriter::FramedFileWriter(FramedFileWriter&& other) noexcept
    : vfs_(other.vfs_),
      retry_(other.retry_),
      path_(std::move(other.path_)),
      fd_(other.fd_),
      size_(other.size_),
      synced_size_(other.synced_size_),
      dirty_(other.dirty_),
      transient_retries_(other.transient_retries_),
      staged_(std::move(other.staged_)),
      staged_records_(other.staged_records_) {
    other.fd_ = -1;
    other.staged_records_ = 0;
}

FramedFileWriter& FramedFileWriter::operator=(FramedFileWriter&& other) noexcept {
    if (this != &other) {
        close();
        vfs_ = other.vfs_;
        retry_ = other.retry_;
        path_ = std::move(other.path_);
        fd_ = other.fd_;
        size_ = other.size_;
        synced_size_ = other.synced_size_;
        dirty_ = other.dirty_;
        transient_retries_ = other.transient_retries_;
        staged_ = std::move(other.staged_);
        staged_records_ = other.staged_records_;
        other.fd_ = -1;
        other.staged_records_ = 0;
    }
    return *this;
}

FramedFileWriter::~FramedFileWriter() { close(); }

void FramedFileWriter::close() {
    if (fd_ >= 0) {
        vfs_->close(fd_);
        fd_ = -1;
    }
}

void FramedFileWriter::require_open(const char* op) const {
    if (fd_ < 0) {
        throw std::logic_error(std::string("FramedFileWriter::") + op + " on a closed writer");
    }
}

void FramedFileWriter::commit() {
    if (staged_records_ == 0) return;
    require_open("commit");
    with_storage_retries(
        *vfs_, retry_,
        [&] {
            if (dirty_) {
                // A previous failed attempt may have written part of the
                // group: rewind to the durable prefix so the rewrite
                // cannot duplicate records.
                vfs_->ftruncate(fd_, path_, synced_size_);
            }
            dirty_ = true;
            vfs_->write_all(fd_, path_, staged_.bytes());
            vfs_->fdatasync(fd_, path_);
            dirty_ = false;
        },
        &transient_retries_);
    synced_size_ = size_;
    staged_.clear();
    staged_records_ = 0;
}

void FramedFileWriter::abandon_staged() {
    size_ -= staged_.size();
    staged_.clear();
    staged_records_ = 0;
    // A failed commit may have externalized part of the abandoned group.
    dirty_ = true;
}

void FramedFileWriter::repair() {
    require_open("repair");
    if (staged_records_ != 0) {
        throw std::logic_error(
            "FramedFileWriter::repair with records staged — commit() first");
    }
    if (!dirty_) return;
    vfs_->ftruncate(fd_, path_, synced_size_);
    vfs_->fdatasync(fd_, path_);
    size_ = synced_size_;
    dirty_ = false;
}

WalWriter WalWriter::create(Vfs& vfs, std::string path, std::uint64_t wal_seq,
                            std::uint64_t config_digest,
                            const StorageRetryPolicy& retry) {
    return WalWriter(FramedFileWriter::create(
        vfs, std::move(path), encode_header(wal_seq, config_digest), retry));
}

WalWriter WalWriter::append_to(Vfs& vfs, std::string path,
                               std::uint64_t valid_size,
                               const StorageRetryPolicy& retry) {
    return WalWriter(FramedFileWriter::append_to(vfs, std::move(path), valid_size, retry));
}

std::uint64_t WalWriter::append(const WalRecord& record) {
    require_open("append");
    if (staged_records() != 0) {
        throw std::logic_error("WalWriter::append with records staged — commit() first");
    }
    const std::uint64_t at = stage(record);
    try {
        commit();
    } catch (...) {
        abandon_staged();
        throw;
    }
    return at;
}

std::uint64_t WalWriter::stage(const WalRecord& record) {
    return stage_frame(payload_size(record),
                       [&](WireWriter& w) { put_payload(w, record); });
}

}  // namespace vnfr::serve
