#include "serve/wal.hpp"

#include <cmath>
#include <utility>

namespace vnfr::serve {

namespace {

constexpr std::string_view kMagic = "VNFRWAL1";
constexpr std::uint64_t kHeaderSize = kWalHeaderSize;
/// No legal record comes close to this; a larger length prefix is either
/// a torn tail (if it runs past EOF) or corruption.
constexpr std::uint32_t kMaxRecordBytes = 1U << 20;

/// Payload bytes of `record`: kind, seq and the seven request fields, then
/// for a decision the outcome bytes, site count and sites.
std::size_t payload_size(const WalRecord& record) {
    std::size_t size = 1 + 8 + 7 * 8;
    if (record.kind == WalRecordKind::kDecision) size += 1 + 1 + 4 + 16 * record.sites.size();
    return size;
}

/// Appends `record` framed as u32 length | payload | u32 CRC(payload).
void put_framed_record(WireWriter& w, const WalRecord& record) {
    w.put_u32(static_cast<std::uint32_t>(payload_size(record)));
    const std::size_t payload_start = w.size();
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
    w.put_crc32(payload_start);
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
        if (site_count > kMaxRecordBytes / 16) {
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

}  // namespace

std::string encode_wal_record(const WalRecord& record) {
    WireWriter w(4 + payload_size(record) + 4);
    put_framed_record(w, record);
    return std::move(w).take();
}

std::vector<WalRecord> decode_wal_record_stream(std::string_view bytes,
                                                const std::string& label,
                                                std::uint64_t base_offset) {
    std::vector<WalRecord> records;
    std::uint64_t pos = 0;
    while (pos < bytes.size()) {
        const std::uint64_t record_start = base_offset + pos;
        const std::uint64_t remaining = bytes.size() - pos;
        if (remaining < 4) {
            throw CorruptStateError(label, record_start,
                                    "truncated record length prefix");
        }
        WireReader frame(bytes.substr(pos), label, record_start);
        const std::uint32_t len = frame.get_u32("record length");
        if (len > kMaxRecordBytes) {
            throw CorruptStateError(label, record_start,
                                    "record length " + std::to_string(len) +
                                        " exceeds the sanity bound");
        }
        if (4ULL + len + 4ULL > remaining) {
            throw CorruptStateError(label, record_start,
                                    "record body runs past end of buffer");
        }
        const std::string_view payload = bytes.substr(pos + 4, len);
        const std::uint64_t crc_offset = record_start + 4 + len;
        WireReader crc_reader(bytes.substr(pos + 4 + len, 4), label, crc_offset);
        if (crc_reader.get_u32("record CRC") != crc32(payload)) {
            throw CorruptStateError(label, crc_offset, "record CRC mismatch");
        }
        WalRecord rec = decode_payload(payload, label, record_start + 4);
        rec.file_offset = record_start;
        records.push_back(std::move(rec));
        pos += 4ULL + len + 4ULL;
    }
    return records;
}

WalContents read_wal(Vfs& vfs, const std::string& path, WalReadMode mode) {
    return parse_wal_bytes(read_file(vfs, path), path, mode);
}

WalContents read_wal(const std::string& path, WalReadMode mode) {
    return read_wal(posix_vfs(), path, mode);
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

    std::uint64_t pos = kHeaderSize;
    while (pos < bytes.size()) {
        const std::uint64_t record_start = pos;
        const std::uint64_t remaining = bytes.size() - pos;
        // A record that cannot even state its length, or whose stated
        // extent runs past EOF, by definition touches the end of file:
        // in recover mode that is the torn tail of a crashed append.
        const auto torn = [&](const std::string& what) -> bool {
            if (mode == WalReadMode::kRecover) {
                out.bytes_discarded = bytes.size() - record_start;
                // A crash tears at most the final append: one fragment.
                out.records_discarded = 1;
                return true;
            }
            throw CorruptStateError(path, record_start, what);
        };
        if (remaining < 4) {
            if (torn("truncated record length prefix")) break;
        }
        WireReader frame(std::string_view(bytes).substr(pos), path, pos);
        const std::uint32_t len = frame.get_u32("record length");
        if (len > kMaxRecordBytes) {
            // Implausible length: if it also runs past EOF it is a torn
            // tail; a plausible in-file extent with a garbage length
            // cannot happen (lengths are CRC-checked via the payload).
            if (4ULL + len + 4ULL > remaining) {
                if (torn("record length runs past end of file")) break;
            }
            throw CorruptStateError(path, record_start,
                                    "record length " + std::to_string(len) +
                                        " exceeds the sanity bound");
        }
        if (4ULL + len + 4ULL > remaining) {
            if (torn("record body runs past end of file")) break;
        }
        const std::string_view payload = std::string_view(bytes).substr(pos + 4, len);
        const std::uint64_t crc_offset = pos + 4 + len;
        WireReader crc_reader(std::string_view(bytes).substr(crc_offset), path, crc_offset);
        const std::uint32_t stored_crc = crc_reader.get_u32("record CRC");
        if (stored_crc != crc32(payload)) {
            // CRC failure on the final record is a torn overwrite; before
            // the tail it is corruption in every mode.
            const bool is_last = crc_offset + 4 == bytes.size();
            if (is_last) {
                if (torn("final record CRC mismatch (torn tail)")) break;
            }
            throw CorruptStateError(path, crc_offset, "record CRC mismatch");
        }
        WalRecord rec = decode_payload(payload, path, pos + 4);
        rec.file_offset = record_start;
        out.records.push_back(std::move(rec));
        pos = crc_offset + 4;
    }
    out.valid_size = bytes.size() - out.bytes_discarded;
    return out;
}

WalWriter WalWriter::create(Vfs& vfs, std::string path, std::uint64_t wal_seq,
                            std::uint64_t config_digest,
                            const StorageRetryPolicy& retry) {
    const std::string header = encode_header(wal_seq, config_digest);
    std::uint64_t retries = 0;
    with_storage_retries(
        vfs, retry, [&] { atomic_write_file(vfs, path, header); }, &retries);
    VfsFdGuard guard(vfs, vfs.open_append(path));
    WalWriter writer(vfs, retry, std::move(path), guard.release(), kHeaderSize);
    writer.transient_retries_ = retries;
    return writer;
}

WalWriter WalWriter::create(std::string path, std::uint64_t wal_seq,
                            std::uint64_t config_digest) {
    return create(posix_vfs(), std::move(path), wal_seq, config_digest);
}

WalWriter WalWriter::append_to(Vfs& vfs, std::string path,
                               std::uint64_t valid_size,
                               const StorageRetryPolicy& retry) {
    VfsFdGuard guard(vfs, vfs.open_append(path));
    // Drop any torn tail before new appends so the file stays a clean
    // sequence of intact records (O_APPEND then lands writes at the new
    // end of file).
    vfs.ftruncate(guard.get(), path, valid_size);
    return WalWriter(vfs, retry, std::move(path), guard.release(), valid_size);
}

WalWriter WalWriter::append_to(std::string path, std::uint64_t valid_size) {
    return append_to(posix_vfs(), std::move(path), valid_size);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
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

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
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

WalWriter::~WalWriter() { close(); }

void WalWriter::close() {
    if (fd_ >= 0) {
        vfs_->close(fd_);
        fd_ = -1;
    }
}

std::uint64_t WalWriter::append(const WalRecord& record) {
    if (fd_ < 0) throw std::logic_error("WalWriter::append on a closed writer");
    if (staged_records_ != 0) {
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
    if (fd_ < 0) throw std::logic_error("WalWriter::stage on a closed writer");
    const std::uint64_t at = size_;
    const std::size_t before = staged_.size();
    put_framed_record(staged_, record);
    size_ += staged_.size() - before;
    ++staged_records_;
    return at;
}

void WalWriter::commit() {
    if (staged_records_ == 0) return;
    if (fd_ < 0) throw std::logic_error("WalWriter::commit on a closed writer");
    std::uint64_t backoff = retry_.initial_backoff_micros;
    for (int attempt = 1;; ++attempt) {
        try {
            if (dirty_) {
                // A previous failed attempt may have written part of the
                // group: rewind to the durable prefix so the rewrite
                // cannot duplicate records.
                vfs_->ftruncate(fd_, path_, synced_size_);
                dirty_ = false;
            }
            dirty_ = true;
            vfs_->write_all(fd_, path_, staged_.bytes());
            vfs_->fdatasync(fd_, path_);
            dirty_ = false;
            break;
        } catch (const VfsError& err) {
            if (!err.transient() || attempt >= retry_.max_attempts) throw;
            ++transient_retries_;
            vfs_->sleep_for_micros(backoff);
            const double next = static_cast<double>(backoff) * retry_.multiplier;
            backoff = next > static_cast<double>(retry_.max_backoff_micros)
                          ? retry_.max_backoff_micros
                          : static_cast<std::uint64_t>(next);
        }
    }
    synced_size_ = size_;
    staged_.clear();
    staged_records_ = 0;
}

void WalWriter::abandon_staged() {
    size_ -= staged_.size();
    staged_.clear();
    staged_records_ = 0;
    // A failed commit may have externalized part of the abandoned group.
    dirty_ = true;
}

void WalWriter::repair() {
    if (fd_ < 0) throw std::logic_error("WalWriter::repair on a closed writer");
    if (staged_records_ != 0) {
        throw std::logic_error("WalWriter::repair with records staged — commit() first");
    }
    if (!dirty_) return;
    vfs_->ftruncate(fd_, path_, synced_size_);
    vfs_->fdatasync(fd_, path_);
    size_ = synced_size_;
    dirty_ = false;
}

}  // namespace vnfr::serve
