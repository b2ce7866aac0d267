// The admitted ledger on disk: `<data_dir>/snapshot.ledger`, an
// append-only file the controller extends at every checkpoint with the
// admissions since the previous one, so a checkpoint writes O(new
// admissions) ledger bytes instead of re-encoding the whole history into
// the snapshot.
//
// File layout:
//   header (24 bytes): magic "VNFRLDG1" | u32 version | u64 config digest
//                      | u32 CRC over the first 20 bytes
//   records:           u32 payload length | payload | u32 CRC(payload),
//                      the WAL's framing; a payload is one AdmittedRecord:
//                      u64 seq | i64 request id | f64 payment
//                      | u32 site count | (i64 cloudlet, i64 replicas)...
//
// The header is published like a WAL header (temp + fsync + rename +
// directory sync), so the file either exists with a valid header or not
// at all. The snapshot names the ledger's durable byte length; only that
// prefix is state. Bytes past it are the appends of a rotation that died
// before its snapshot was renamed in: recovery truncates them before the
// first append, and the admissions they held are replayed from the WAL.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/snapshot.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve {

inline constexpr std::uint32_t kLedgerVersion = 1;

/// Fixed byte size of the ledger header (magic + version + config digest
/// + header CRC). Records start at this offset.
inline constexpr std::uint64_t kLedgerHeaderSize = 8 + 4 + 8 + 4;

/// Path of the ledger in `dir`: `<dir>/snapshot.ledger`.
[[nodiscard]] std::string ledger_file_path(const std::string& dir);

/// Reads one admitted record in the ledger's field layout (version-1
/// snapshots inline the same layout) from `r` into `rec`, checking that
/// the payment is finite and non-negative, every site cloudlet id is
/// below `cloudlets` and every replica count is at least 1. Throws
/// CorruptStateError naming `label` and the field's offset.
void decode_admitted_record(WireReader& r, const std::string& label, std::uint64_t cloudlets,
                            AdmittedRecord& rec);

/// The ledger header bytes for `config_digest`.
[[nodiscard]] std::string encode_ledger_header(std::uint64_t config_digest);

/// One record in its framed byte form (exposed for tests that craft
/// corrupt inputs).
[[nodiscard]] std::string encode_ledger_record(const AdmittedRecord& record);

/// Creates the ledger at `path` holding just its header, published
/// atomically (see FramedFileWriter::create).
[[nodiscard]] FramedFileWriter create_ledger(Vfs& vfs, std::string path,
                                             std::uint64_t config_digest,
                                             const StorageRetryPolicy& retry = {});

/// Buffers `record` for the ledger's next commit().
void stage_ledger_record(FramedFileWriter& ledger, const AdmittedRecord& record);

struct LedgerContents {
    std::uint64_t config_digest{0};
    std::vector<AdmittedRecord> records;
    /// File bytes past the parsed prefix (load_ledger only): appends no
    /// snapshot names yet, a legal crash leftover.
    std::uint64_t tail_bytes{0};
};

/// Strictly parses a whole ledger image: header plus intact records, with
/// site cloudlet ids below `cloudlets`. Any torn, corrupt or implausible
/// byte throws CorruptStateError naming `label` and the offset.
[[nodiscard]] LedgerContents parse_ledger_bytes(std::string_view bytes,
                                                const std::string& label,
                                                std::uint64_t cloudlets);

/// Loads the ledger prefix that `snap` (a v2 snapshot) vouches for from
/// `path`: exactly snap.ledger_bytes bytes, parsed strictly, with the
/// snapshot's config digest and one record per admitted request. Throws
/// CorruptStateError naming the file and offset when the ledger is
/// missing, shorter than the named length, or disagrees with the
/// snapshot.
[[nodiscard]] LedgerContents load_ledger(Vfs& vfs, const std::string& path,
                                         const ControllerSnapshot& snap);

}  // namespace vnfr::serve
