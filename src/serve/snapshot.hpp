// Durable snapshot of an AdmissionController: dual prices, ledger usage,
// request-coverage bookkeeping, revenue counters, and the byte length of
// the admitted ledger's durable prefix. The admitted requests themselves
// live in the append-only ledger file (serve/ledger.hpp), so a snapshot is
// O(cloudlets x horizon) however long the history grows. Snapshots are
// written atomically (write temp + fsync + rename + directory fsync) and
// carry a whole-file CRC-32 plus magic/version header, so a loader either
// gets exactly what was saved or a CorruptStateError naming the bad byte.
//
// Versions. The encoder writes version 2. The decoder also reads version
// 1, whose payload ends in the inline admitted list (u64 count, then per
// record u64 seq | i64 request id | f64 payment | u32 site count | sites)
// where version 2 has one u64 ledger length.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace vnfr::serve {

inline constexpr std::uint32_t kSnapshotVersion = 2;

/// One admitted request as recorded durably: its position in the request
/// stream, identity, collected payment, and placement sites.
struct AdmittedRecord {
    std::uint64_t seq{0};       ///< stream sequence number
    std::int64_t request_id{0};
    double payment{0.0};
    /// Placement as (cloudlet id, replica count) pairs.
    std::vector<std::pair<std::int64_t, std::int64_t>> sites;
};

/// Admission/shedding counters; `processed` counts decided requests
/// (admitted + rejected), shed requests are tracked separately.
struct ServeMetrics {
    std::uint64_t processed{0};
    std::uint64_t admitted{0};
    std::uint64_t rejected{0};
    std::uint64_t shed{0};
    double revenue{0.0};       ///< sum of admitted payments
    double shed_revenue{0.0};  ///< payments turned away by the overload guard
};

/// The full durable state of a controller at one instant.
struct ControllerSnapshot {
    std::uint8_t scheme{0};  ///< core::Scheme as u8 (0 = onsite, 1 = offsite)
    /// Digest of the bound instance's shape (cloudlets, catalog, horizon,
    /// scheme); a snapshot only loads against the instance it was saved for.
    std::uint64_t config_digest{0};
    std::uint64_t cloudlets{0};
    std::uint64_t horizon{0};
    /// Generation of the WAL that logs records after this snapshot.
    std::uint64_t wal_seq{0};
    ServeMetrics metrics;
    std::vector<std::vector<double>> lambda;  ///< [cloudlet][slot]
    std::vector<double> usage;                ///< row-major [cloudlet][slot]
    /// Coverage: every stream seq < watermark is durably resolved, plus the
    /// (ascending) sparse seqs above it.
    std::uint64_t covered_watermark{0};
    std::vector<std::uint64_t> covered_sparse;
    /// Byte length of the admitted ledger prefix (header included) this
    /// snapshot vouches for; metrics.admitted records live in it. 0 only
    /// in a decoded version-1 image, which names no ledger.
    std::uint64_t ledger_bytes{0};
    /// Version-1 images only: the inline admitted list. Empty in version
    /// 2, which keeps it in the ledger; the encoder refuses a non-empty
    /// one.
    std::vector<AdmittedRecord> admitted;
};

/// Borrowed view of everything a version-2 snapshot persists, field for
/// field as in ControllerSnapshot. The encoder writes straight from it, so
/// a controller checkpoints its live state without copying it first. The
/// viewed state must outlive the encode call.
struct SnapshotView {
    std::uint8_t scheme{0};
    std::uint64_t config_digest{0};
    std::uint64_t cloudlets{0};
    std::uint64_t horizon{0};
    std::uint64_t wal_seq{0};
    ServeMetrics metrics;
    std::span<const std::vector<double>> lambda;
    std::span<const double> usage;
    std::uint64_t covered_watermark{0};
    std::span<const std::uint64_t> covered_sparse;
    std::uint64_t ledger_bytes{0};
};

/// Bytes encode_snapshot(view) produces: a function of the shape and the
/// sparse covered count only.
[[nodiscard]] std::size_t encoded_snapshot_size(const SnapshotView& view);

/// Serializes `view` to the version-2 byte layout (header + payload +
/// CRC) in one pass into a buffer sized up front. Throws
/// std::invalid_argument when ledger_bytes is shorter than a ledger
/// header: a version-2 snapshot always names a ledger.
[[nodiscard]] std::string encode_snapshot(const SnapshotView& view);

/// encode_snapshot over a view of `snap`. Throws std::invalid_argument
/// when `snap.admitted` is not empty: only version 1 carried it inline.
[[nodiscard]] std::string encode_snapshot(const ControllerSnapshot& snap);

/// Parses and fully validates an encoded snapshot of either version. Throws
/// CorruptStateError (with `label` and the offending offset) on any
/// truncation, bad magic, unsupported version, CRC mismatch, or
/// structurally impossible field.
[[nodiscard]] ControllerSnapshot decode_snapshot(std::string_view bytes,
                                                 const std::string& label);

class Vfs;
struct StorageRetryPolicy;

/// Atomic save of the encoded `view` to `path` through `vfs` (see file
/// header for the crash-consistency protocol). Transient storage errors
/// are retried per `retry`; `transient_retries`, when given, is
/// incremented once per retry taken.
void save_snapshot(Vfs& vfs, const std::string& path, const SnapshotView& view,
                   const StorageRetryPolicy& retry,
                   std::uint64_t* transient_retries = nullptr);

/// save_snapshot through the process-wide PosixVfs.
void save_snapshot(const std::string& path, const ControllerSnapshot& snap);

/// Loads and validates the snapshot at `path` through `vfs`.
[[nodiscard]] ControllerSnapshot load_snapshot(Vfs& vfs, const std::string& path);

/// load_snapshot through the process-wide PosixVfs.
[[nodiscard]] ControllerSnapshot load_snapshot(const std::string& path);

}  // namespace vnfr::serve
