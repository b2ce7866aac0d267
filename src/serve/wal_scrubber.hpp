// Integrity scrubber for a controller state directory: walks the snapshot,
// the admitted ledger and every retained WAL generation with the readers
// recovery uses, and re-verifies all the CRCs and cross-file invariants
// recovery would rely on, WITHOUT mutating anything. The point is to
// surface latent corruption (a bit rot in a retained generation, a
// snapshot that no longer decodes) while the data still has a healthy
// replica to re-ship from — not at the moment a failover desperately
// needs the bytes. The report keeps what the readers returned, so it is
// also the operator's dump of a directory (`vnfrsim --inspect`).
//
// Invariants checked, per scrub:
//   - the snapshot (when present) decodes with a valid CRC;
//   - the admitted ledger a (version-2) snapshot names exists, carries
//     the snapshot's config digest, parses strictly up to the named
//     length, and holds one record per admitted request. Bytes past that
//     length are a legal torn tail (a rotation that died before its
//     snapshot rename), reported but not a finding;
//   - every wal-<gen>.log parses cleanly: valid header CRC, every record
//     CRC intact. Only the NEWEST generation may carry a torn tail (a
//     crash interrupts at most the live file's final append), read in
//     WalReadMode::kRecover as restart reads it; any torn or corrupt
//     bytes in an older, rotation-closed generation are findings;
//   - each file's header generation matches its filename;
//   - all generations carry the same config digest, matching the
//     snapshot's when one exists;
//   - retained generations are contiguous (releases only trim from the
//     bottom, so a hole means a lost file);
//   - the snapshot's WAL generation points into (or just past) the
//     retained range.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/snapshot.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve {

/// One problem found by a scrub, with enough context to locate the bad
/// byte: which file, what is wrong, and where.
struct ScrubFinding {
    std::string file;
    std::string detail;
    std::uint64_t offset{0};
};

/// One WAL generation the scrub parsed: its path and what read_wal
/// returned for it (header generation and config digest, every record
/// with its file offset, the torn tail dropped from the newest).
struct ScrubbedGeneration {
    std::string file;
    WalContents contents;
};

struct ScrubReport {
    bool snapshot_present{false};
    /// The decoded snapshot; empty when absent or corrupt.
    std::optional<ControllerSnapshot> snapshot;
    /// Admitted records verified in the ledger prefix the snapshot names.
    std::uint64_t ledger_records_verified{0};
    /// Ledger bytes past the named prefix (legal, not a finding).
    std::uint64_t ledger_tail_bytes{0};
    /// The generations that parsed, in ascending order; a generation
    /// that did not is a finding instead.
    std::vector<ScrubbedGeneration> generations;
    std::vector<ScrubFinding> findings;

    /// A clean scrub: nothing corrupt, nothing missing, nothing
    /// inconsistent. An absent snapshot with zero generations is clean
    /// (a virgin directory); an absent snapshot alongside WAL files is
    /// clean too (the controller has not checkpointed yet) — corruption,
    /// holes, and digest mismatches are not.
    [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Scrubs the controller state in `dir` through `vfs`. Read-only: never
/// repairs, truncates, or deletes. Throws only for environmental failure
/// (the directory itself is unreadable); every data problem is reported
/// as a finding instead.
[[nodiscard]] ScrubReport scrub_data_dir(Vfs& vfs, const std::string& dir);

/// scrub_data_dir through the process-wide PosixVfs.
[[nodiscard]] ScrubReport scrub_data_dir(const std::string& dir);

}  // namespace vnfr::serve
