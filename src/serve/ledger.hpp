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
// A restart checks only the header and the length (check_ledger_header);
// the records are parsed by whoever reads them (read_ledger_prefix: the
// controller's digest and admitted list, and the scrubber).
#pragma once

#include <cstdint>
#include <functional>
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

/// A durable ledger prefix: what a version-2 snapshot, or a live
/// controller's last rotation, vouches for.
struct LedgerPrefix {
    std::uint64_t bytes{0};          ///< length, header included
    std::uint64_t records{0};        ///< admitted records it holds
    std::uint64_t config_digest{0};  ///< the digest its header carries
    std::uint64_t cloudlets{0};      ///< every site cloudlet id is below this
};

/// The prefix a version-2 snapshot names: snap.ledger_bytes bytes holding
/// one record per admitted request.
[[nodiscard]] LedgerPrefix ledger_prefix_of(const ControllerSnapshot& snap);

/// The O(1) check a restart makes: the ledger at `path` exists, is at
/// least prefix.bytes long and carries an intact header with
/// prefix.config_digest. Reads the header only; the records are checked
/// by whoever reads them (read_ledger_prefix). Throws CorruptStateError
/// naming the file and offset otherwise.
void check_ledger_header(Vfs& vfs, const std::string& path, const LedgerPrefix& prefix);

/// Streams `prefix` from the ledger at `path`: the checks of
/// check_ledger_header, then every record of the prefix parsed strictly
/// and handed to `on_record` in file order (the record may be moved
/// from), then the record count checked against prefix.records. Any torn,
/// corrupt or missing byte throws CorruptStateError naming the file and
/// offset, after the records before it were handed over. Returns the
/// file's bytes past the prefix: appends no snapshot names yet, a legal
/// crash leftover.
std::uint64_t read_ledger_prefix(Vfs& vfs, const std::string& path, const LedgerPrefix& prefix,
                                 const std::function<void(AdmittedRecord&)>& on_record);

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

/// read_ledger_prefix of the prefix `snap` (a v2 snapshot) names,
/// collected into a list.
[[nodiscard]] LedgerContents load_ledger(Vfs& vfs, const std::string& path,
                                         const ControllerSnapshot& snap);

}  // namespace vnfr::serve
