// Durable snapshot of an AdmissionController: dual prices, ledger usage,
// request-coverage bookkeeping, revenue counters, and the admitted-request
// ledger. Snapshots are written atomically (write temp + fsync + rename +
// directory fsync) and carry a whole-file CRC-32 plus magic/version
// header, so a loader either gets exactly what was saved or a
// CorruptStateError naming the bad byte.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace vnfr::serve {

inline constexpr std::uint32_t kSnapshotVersion = 1;

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
    std::vector<AdmittedRecord> admitted;
};

/// Borrowed view of everything a snapshot persists, field for field as in
/// ControllerSnapshot. The encoder writes straight from it, so a
/// controller checkpoints its live state without first copying the
/// admitted ledger. The viewed state must outlive the encode call.
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
    std::span<const AdmittedRecord> admitted;
};

/// Serializes `view` to the on-disk byte layout (header + payload + CRC)
/// in one pass into a buffer sized up front.
[[nodiscard]] std::string encode_snapshot(const SnapshotView& view);

/// encode_snapshot over a view of `snap`.
[[nodiscard]] std::string encode_snapshot(const ControllerSnapshot& snap);

/// Parses and fully validates an encoded snapshot. Throws
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
