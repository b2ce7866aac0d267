// Write-ahead log of per-request admission outcomes between snapshots.
//
// File layout:
//   header (32 bytes): magic "VNFRWAL1" | u32 version | u64 wal generation
//                      | u64 config digest | u32 CRC over the first 28 bytes
//   records:           u32 payload length | payload | u32 CRC(payload)
//
// The header is created via atomic_write_file (temp + fsync + rename), so
// a WAL file either has a complete valid header or does not exist — a
// zero-length or header-truncated WAL is always corruption, never a legal
// crash state. Records are appended with write + fdatasync; a crash can
// only tear the final record, which recovery-mode reads detect and drop.
//
// The framing, the frame walker (scan_frames) and the appender
// (FramedFileWriter) are shared with the admitted ledger
// (serve/ledger.hpp), which is the other append-only file of a data
// directory.
//
// Each record carries the full request plus its outcome. Recovery
// re-executes decision records against the restored scheduler (decide()
// is deterministic) and cross-checks the logged outcome, so replayed
// state is bit-identical by construction and silent divergence is caught.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "serve/vfs.hpp"
#include "serve/wire.hpp"
#include "workload/request.hpp"

namespace vnfr::serve {

inline constexpr std::uint32_t kWalVersion = 1;

/// Fixed byte size of the WAL header (magic + version + generation +
/// config digest + header CRC). Record framing starts at this offset —
/// replication tailers start a fresh generation here.
inline constexpr std::uint64_t kWalHeaderSize = 8 + 4 + 8 + 8 + 4;

enum class WalRecordKind : std::uint8_t {
    kDecision = 1,  ///< the scheduler decided (admitted or rejected)
    kShed = 2,      ///< the overload guard turned the request away undecided
};

struct WalRecord {
    WalRecordKind kind{WalRecordKind::kDecision};
    std::uint64_t seq{0};  ///< stream sequence number
    workload::Request request;
    // Decision records only:
    bool admitted{false};
    core::RejectReason reject_reason{core::RejectReason::kNone};
    std::vector<core::Site> sites;  ///< placement when admitted
    /// File offset of the record's length prefix (set by read_wal, for
    /// error reporting; ignored by append).
    std::uint64_t file_offset{0};
};

/// How read_wal treats anomalies.
enum class WalReadMode {
    /// Any inconsistency throws CorruptStateError — for integrity tests
    /// and offline inspection.
    kStrict,
    /// A final record that is incomplete or CRC-broken *and* extends to
    /// end-of-file is treated as a torn tail from a crash and dropped
    /// (reported via WalContents::bytes_discarded). Anything wrong before
    /// the tail still throws.
    kRecover,
};

struct WalContents {
    std::uint64_t wal_seq{0};
    std::uint64_t config_digest{0};
    std::vector<WalRecord> records;
    /// Bytes of torn tail dropped in kRecover mode (0 when the file was
    /// clean). The valid prefix length is file size minus this.
    std::uint64_t bytes_discarded{0};
    /// Record fragments dropped with the torn tail (0 or 1: a crash can
    /// only tear the final append).
    std::uint64_t records_discarded{0};
    /// Size in bytes of the validated prefix (header + intact records).
    std::uint64_t valid_size{0};
};

/// Path of WAL generation `generation` in `dir`: `<dir>/wal-<gen>.log`.
[[nodiscard]] std::string wal_file_path(const std::string& dir,
                                        std::uint64_t generation);

/// Generations of the WAL files in `dir`, in ascending numeric order. A
/// name counts only when it is exactly what wal_file_path() would build
/// for its number: names with digits that overflow uint64, leading zeros
/// or anything else are foreign files and are skipped.
[[nodiscard]] std::vector<std::uint64_t> list_wal_generations(Vfs& vfs,
                                                              const std::string& dir);

/// Parses the WAL at `path` through `vfs`. Throws CorruptStateError per
/// `mode` above.
[[nodiscard]] WalContents read_wal(Vfs& vfs, const std::string& path,
                                   WalReadMode mode);

/// Frames are u32 payload length | payload | u32 CRC-32(payload). No
/// legal record comes close to this payload bound; a larger length
/// prefix is either a torn tail (if it runs past EOF) or corruption.
inline constexpr std::uint32_t kMaxFramePayload = 1U << 20;

/// Where a walk over framed records stopped (see scan_frames).
struct FrameScan {
    /// Bytes torn off the end in kRecover mode (0 when the run was clean).
    std::uint64_t bytes_discarded{0};
    /// Record fragments dropped with the torn tail (0 or 1).
    std::uint64_t records_discarded{0};
    /// End of the last intact frame.
    std::uint64_t valid_size{0};
};

/// Walks the framed records of `bytes` from offset `start` in file order,
/// calling `on_payload(record_offset, payload)` for each intact one; what
/// a payload means is the caller's business. `bytes` sits at
/// `base_offset` in its file (0 for a whole file, nonzero for a shipped
/// run), and every record and error offset is a file offset. `mode`
/// decides whether a torn final frame is dropped (kRecover) or throws
/// (kStrict); anything wrong before the tail throws CorruptStateError
/// naming `label` in both. FrameScan's sizes count from `bytes`' start.
FrameScan scan_frames(std::string_view bytes, std::uint64_t start, std::uint64_t base_offset,
                      const std::string& label, WalReadMode mode,
                      const std::function<void(std::uint64_t, std::string_view)>& on_payload);

/// Append-only file of framed records behind a header that is published
/// atomically. The WAL and the admitted ledger are both one of these.
/// All writes go through a Vfs; stage_frame() buffers records in memory
/// and commit() writes them with one write + one fdatasync (group
/// commit). Staged records live only in memory until commit() — a crash
/// between stage and commit loses the whole staged suffix, which recovery
/// treats exactly like records that were never appended. A crash *during*
/// the commit write can leave a prefix of the group on disk: whole
/// records followed by at most one torn record at EOF, the shape
/// WalReadMode::kRecover handles.
///
/// Transient write/sync errors (VfsError with transient() true) are
/// retried per the StorageRetryPolicy, rewinding the file to the last
/// durably synced size before every rewrite so a short write cannot
/// duplicate bytes. When retries are exhausted or the error is
/// persistent (ENOSPC), the error propagates with the file left dirty:
/// the on-disk tail past durable_size() is garbage until repair() — or
/// the next successful commit, which rewinds first — cleans it up.
class FramedFileWriter {
  public:
    /// Creates `path` holding just `header` (atomically: written to a
    /// temp file, fsynced, renamed in, directory synced), so the file
    /// either exists with its whole header or not at all. Fails if
    /// nothing can be written durably.
    static FramedFileWriter create(Vfs& vfs, std::string path, std::string_view header,
                                   const StorageRetryPolicy& retry = {});

    /// Opens an existing file for appending after recovery, truncating it
    /// to `valid_size` first (dropping any tail past the intact prefix).
    static FramedFileWriter append_to(Vfs& vfs, std::string path,
                                      std::uint64_t valid_size,
                                      const StorageRetryPolicy& retry = {});

    FramedFileWriter(FramedFileWriter&&) noexcept;
    FramedFileWriter& operator=(FramedFileWriter&&) noexcept;
    FramedFileWriter(const FramedFileWriter&) = delete;
    FramedFileWriter& operator=(const FramedFileWriter&) = delete;
    ~FramedFileWriter();

    /// Buffers one frame for the next commit(): `put_payload(WireWriter&)`
    /// writes exactly `payload_size` bytes. No syscalls; the record is
    /// NOT durable (nor even externalized) until commit() returns.
    /// Returns the offset the record will occupy.
    template <typename PutPayload>
    std::uint64_t stage_frame(std::size_t payload_size, PutPayload&& put_payload) {
        require_open("stage");
        const std::uint64_t at = size_;
        const std::size_t before = staged_.size();
        staged_.put_u32(static_cast<std::uint32_t>(payload_size));
        const std::size_t payload_start = staged_.size();
        put_payload(staged_);
        staged_.put_crc32(payload_start);
        size_ += staged_.size() - before;
        ++staged_records_;
        return at;
    }

    /// Writes every staged record in one contiguous append and fdatasyncs
    /// once — the group-commit amortization point. No-op when nothing is
    /// staged.
    void commit();

    /// Drops every staged-but-uncommitted record (after a failed commit
    /// whose group the caller will not retry). Marks the file dirty — a
    /// failed commit may have written part of the group.
    void abandon_staged();

    /// Records staged since the last commit().
    [[nodiscard]] std::size_t staged_records() const { return staged_records_; }

    /// Bytes of the file that are durably committed (synced). A tailer
    /// may ship exactly this prefix — staged bytes are not yet
    /// externalized, let alone durable, and a failed commit's partial
    /// write past this point is garbage awaiting rewind.
    [[nodiscard]] std::uint64_t durable_size() const { return synced_size_; }

    /// True when a failed commit may have left bytes past durable_size()
    /// on disk; the next commit (or repair()) rewinds them first.
    [[nodiscard]] bool dirty() const { return dirty_; }

    /// Transient storage errors absorbed by retries so far.
    [[nodiscard]] std::uint64_t transient_retries() const {
        return transient_retries_;
    }

    /// Truncates the file back to durable_size(), discarding the partial
    /// garbage a failed commit may have written. No-op when clean.
    /// Requires nothing staged.
    void repair();

    [[nodiscard]] const std::string& path() const { return path_; }

    /// Closes the fd early (destructor also does). Safe to call twice.
    void close();

  protected:
    FramedFileWriter(Vfs& vfs, const StorageRetryPolicy& retry, std::string path,
                     int fd, std::uint64_t size)
        : vfs_(&vfs), retry_(retry), path_(std::move(path)), fd_(fd),
          size_(size), synced_size_(size) {}

    /// Throws std::logic_error naming `op` on a closed writer.
    void require_open(const char* op) const;

  private:
    Vfs* vfs_;
    StorageRetryPolicy retry_;
    std::string path_;
    int fd_{-1};
    /// Logical end of file including staged-but-uncommitted bytes.
    std::uint64_t size_{0};
    /// Durably synced prefix length (never counts partial failed writes).
    std::uint64_t synced_size_{0};
    /// A failed commit may have left garbage past synced_size_ on disk.
    bool dirty_{false};
    std::uint64_t transient_retries_{0};
    WireWriter staged_;  ///< framed bytes awaiting commit()
    std::size_t staged_records_{0};
};

/// Appender over one WAL generation: a FramedFileWriter whose frames are
/// WalRecords. append() fdatasyncs per record (the durability contract
/// recovery relies on), while stage()/commit() batch several records into
/// one write + one fdatasync (group commit).
class WalWriter : public FramedFileWriter {
  public:
    /// Creates `path` with a fresh header through `vfs`, published
    /// atomically (see FramedFileWriter::create).
    static WalWriter create(Vfs& vfs, std::string path, std::uint64_t wal_seq,
                            std::uint64_t config_digest,
                            const StorageRetryPolicy& retry = {});

    /// Opens an existing WAL for appending after recovery through `vfs`,
    /// truncating it to `valid_size` first (dropping any torn tail
    /// read_wal reported).
    static WalWriter append_to(Vfs& vfs, std::string path,
                               std::uint64_t valid_size,
                               const StorageRetryPolicy& retry = {});

    /// Appends one framed record and fdatasyncs. Returns the record's
    /// file offset. Equivalent to stage() + commit(); requires no records
    /// currently staged (mixing the two modes inside one group would blur
    /// which records the fdatasync covered).
    std::uint64_t append(const WalRecord& record);

    /// Buffers one framed record in memory for the next commit(). Returns
    /// the offset the record will occupy.
    std::uint64_t stage(const WalRecord& record);

  private:
    explicit WalWriter(FramedFileWriter&& file) : FramedFileWriter(std::move(file)) {}
};

/// Serializes one record to its framed byte form (exposed for tests that
/// need to craft corrupt inputs).
[[nodiscard]] std::string encode_wal_record(const WalRecord& record);

/// Strictly decodes a headerless run of consecutively framed records
/// (len|payload|CRC, as shipped by replication frames). Any inconsistency
/// — including a short tail — throws CorruptStateError; `base_offset` is
/// the run's position within its source file for error reporting, and
/// each record's file_offset is set relative to it.
[[nodiscard]] std::vector<WalRecord> decode_wal_record_stream(
    std::string_view bytes, const std::string& label, std::uint64_t base_offset);

}  // namespace vnfr::serve
