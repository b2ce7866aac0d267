#include "serve/snapshot.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "serve/ledger.hpp"
#include "serve/vfs.hpp"

namespace vnfr::serve {

namespace {

constexpr std::string_view kMagic = "VNFRSNP1";
/// The last version whose payload ends in the inline admitted list.
constexpr std::uint32_t kInlineLedgerVersion = 1;

/// Upper bound on element counts decoded from length fields, so a fuzzed
/// length cannot drive a multi-gigabyte allocation before the CRC check
/// (the CRC runs first; this is belt-and-braces against crafted files
/// whose CRC happens to pass).
constexpr std::uint64_t kMaxElements = 1ULL << 28;

void check_count(const WireReader& reader, std::uint64_t count, const char* what) {
    if (count > kMaxElements) {
        throw CorruptStateError("snapshot", reader.offset(),
                                std::string(what) + " count " + std::to_string(count) +
                                    " exceeds the sanity bound");
    }
}

SnapshotView view_of(const ControllerSnapshot& snap) {
    SnapshotView view;
    view.scheme = snap.scheme;
    view.config_digest = snap.config_digest;
    view.cloudlets = snap.cloudlets;
    view.horizon = snap.horizon;
    view.wal_seq = snap.wal_seq;
    view.metrics = snap.metrics;
    view.lambda = snap.lambda;
    view.usage = snap.usage;
    view.covered_watermark = snap.covered_watermark;
    view.covered_sparse = snap.covered_sparse;
    view.ledger_bytes = snap.ledger_bytes;
    return view;
}

/// Version 1's inline admitted list, which ends its payload.
void decode_inline_ledger(WireReader& r, const std::string& label,
                          ControllerSnapshot& snap) {
    const std::uint64_t admitted_count = r.get_u64("admitted record count");
    check_count(r, admitted_count, "admitted record");
    if (admitted_count != snap.metrics.admitted) {
        throw CorruptStateError(label, r.offset() - 8,
                                "admitted record count disagrees with the admitted "
                                "counter");
    }
    snap.admitted.resize(admitted_count);
    for (AdmittedRecord& rec : snap.admitted) {
        decode_admitted_record(r, label, snap.cloudlets, rec);
    }
}

}  // namespace

std::size_t encoded_snapshot_size(const SnapshotView& view) {
    // Magic, version, scheme, four shape words, four counters, two revenues.
    std::size_t size = kMagic.size() + 4 + 1 + 4 * 8 + 4 * 8 + 2 * 8;
    for (const auto& row : view.lambda) size += 8 * row.size();
    size += 8 * view.usage.size();
    size += 8 + 8 + 8 * view.covered_sparse.size();
    size += 8;  // ledger length
    size += 4;  // CRC trailer
    return size;
}

std::string encode_snapshot(const SnapshotView& view) {
    if (view.ledger_bytes < kLedgerHeaderSize) {
        throw std::invalid_argument("encode_snapshot: ledger length " +
                                    std::to_string(view.ledger_bytes) +
                                    " is shorter than a ledger header");
    }
    WireWriter w(encoded_snapshot_size(view));
    w.put_bytes(kMagic);
    w.put_u32(kSnapshotVersion);
    w.put_u8(view.scheme);
    w.put_u64(view.config_digest);
    w.put_u64(view.cloudlets);
    w.put_u64(view.horizon);
    w.put_u64(view.wal_seq);
    w.put_u64(view.metrics.processed);
    w.put_u64(view.metrics.admitted);
    w.put_u64(view.metrics.rejected);
    w.put_u64(view.metrics.shed);
    w.put_f64(view.metrics.revenue);
    w.put_f64(view.metrics.shed_revenue);
    for (const auto& row : view.lambda) w.put_f64s(row);
    w.put_f64s(view.usage);
    w.put_u64(view.covered_watermark);
    w.put_u64(view.covered_sparse.size());
    for (const std::uint64_t s : view.covered_sparse) w.put_u64(s);
    w.put_u64(view.ledger_bytes);
    w.put_crc32();
    return std::move(w).take();
}

std::string encode_snapshot(const ControllerSnapshot& snap) {
    if (!snap.admitted.empty()) {
        throw std::invalid_argument(
            "encode_snapshot: an inline admitted list is version 1 only; version 2 "
            "keeps it in the ledger");
    }
    return encode_snapshot(view_of(snap));
}

ControllerSnapshot decode_snapshot(std::string_view bytes, const std::string& label) {
    // Header + CRC trailer must at least fit before anything is parsed.
    if (bytes.size() < kMagic.size() + 4 + 4) {
        throw CorruptStateError(label, bytes.size(),
                                "file too short to hold a snapshot header");
    }
    WireReader header(bytes, label);
    if (header.get_bytes(kMagic.size(), "magic") != kMagic) {
        throw CorruptStateError(label, 0, "bad magic (not a VNFR snapshot)");
    }
    const std::uint32_t version = header.get_u32("version");
    if (version != kSnapshotVersion && version != kInlineLedgerVersion) {
        throw CorruptStateError(label, kMagic.size(),
                                "unsupported snapshot version " + std::to_string(version) +
                                    " (expected " + std::to_string(kInlineLedgerVersion) +
                                    " or " + std::to_string(kSnapshotVersion) + ")");
    }
    // CRC covers everything before the 4-byte trailer.
    const std::string_view body = bytes.substr(0, bytes.size() - 4);
    WireReader trailer(bytes.substr(bytes.size() - 4), label, bytes.size() - 4);
    const std::uint32_t stored_crc = trailer.get_u32("crc trailer");
    const std::uint32_t actual_crc = crc32(body);
    if (stored_crc != actual_crc) {
        throw CorruptStateError(label, bytes.size() - 4, "CRC mismatch: file corrupt");
    }

    WireReader r(body.substr(kMagic.size() + 4), label, kMagic.size() + 4);
    ControllerSnapshot snap;
    snap.scheme = r.get_u8("scheme");
    if (snap.scheme > 1) {
        throw CorruptStateError(label, r.offset() - 1,
                                "scheme byte " + std::to_string(snap.scheme) +
                                    " is neither onsite (0) nor offsite (1)");
    }
    snap.config_digest = r.get_u64("config digest");
    snap.cloudlets = r.get_u64("cloudlet count");
    snap.horizon = r.get_u64("horizon");
    check_count(r, snap.cloudlets, "cloudlet");
    check_count(r, snap.horizon, "horizon slot");
    check_count(r, snap.cloudlets * snap.horizon, "state cell");
    snap.wal_seq = r.get_u64("wal generation");
    snap.metrics.processed = r.get_u64("processed counter");
    snap.metrics.admitted = r.get_u64("admitted counter");
    snap.metrics.rejected = r.get_u64("rejected counter");
    snap.metrics.shed = r.get_u64("shed counter");
    if (snap.metrics.admitted + snap.metrics.rejected != snap.metrics.processed) {
        throw CorruptStateError(label, r.offset(),
                                "admitted + rejected != processed counters");
    }
    snap.metrics.revenue = r.get_f64("revenue");
    snap.metrics.shed_revenue = r.get_f64("shed revenue");
    if (!std::isfinite(snap.metrics.revenue) || !std::isfinite(snap.metrics.shed_revenue)) {
        throw CorruptStateError(label, r.offset(), "non-finite revenue counter");
    }
    // Cells are read in bulk, then checked one by one: a bad cell is
    // reported at its own offset, exactly as a field-by-field read would.
    const auto check_cells = [&](std::span<const double> cells, std::uint64_t start,
                                 const char* what) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!std::isfinite(cells[i]) || cells[i] < 0.0) {
                throw CorruptStateError(label, start + 8 * i,
                                        std::string(what) +
                                            " is not finite and non-negative");
            }
        }
    };
    snap.lambda.assign(snap.cloudlets, {});
    for (auto& row : snap.lambda) {
        row.resize(snap.horizon);
        const std::uint64_t start = r.offset();
        r.get_f64s(row, "lambda cell");
        check_cells(row, start, "lambda cell");
    }
    snap.usage.resize(snap.cloudlets * snap.horizon);
    const std::uint64_t usage_start = r.offset();
    r.get_f64s(snap.usage, "usage cell");
    check_cells(snap.usage, usage_start, "usage cell");
    snap.covered_watermark = r.get_u64("covered watermark");
    const std::uint64_t sparse_count = r.get_u64("sparse covered count");
    check_count(r, sparse_count, "sparse covered seq");
    snap.covered_sparse.resize(sparse_count);
    std::uint64_t prev = 0;
    bool first = true;
    for (std::uint64_t& s : snap.covered_sparse) {
        s = r.get_u64("sparse covered seq");
        // Invariant: the watermark seq itself is uncovered, so every sparse
        // entry lies strictly above it, in strictly ascending order.
        if (s <= snap.covered_watermark) {
            throw CorruptStateError(label, r.offset() - 8,
                                    "sparse covered seq at or below the watermark");
        }
        if (!first && s <= prev) {
            throw CorruptStateError(label, r.offset() - 8,
                                    "sparse covered seqs not strictly ascending");
        }
        prev = s;
        first = false;
    }
    if (version == kSnapshotVersion) {
        snap.ledger_bytes = r.get_u64("ledger length");
        if (snap.ledger_bytes < kLedgerHeaderSize) {
            throw CorruptStateError(label, r.offset() - 8,
                                    "ledger length shorter than a ledger header");
        }
    } else {
        decode_inline_ledger(r, label, snap);
    }
    r.require_end("snapshot payload");
    return snap;
}

void save_snapshot(Vfs& vfs, const std::string& path, const SnapshotView& view,
                   const StorageRetryPolicy& retry,
                   std::uint64_t* transient_retries) {
    const std::string bytes = encode_snapshot(view);
    with_storage_retries(
        vfs, retry, [&] { atomic_write_file(vfs, path, bytes); },
        transient_retries);
}

ControllerSnapshot load_snapshot(Vfs& vfs, const std::string& path) {
    return decode_snapshot(read_file(vfs, path), path);
}

}  // namespace vnfr::serve
