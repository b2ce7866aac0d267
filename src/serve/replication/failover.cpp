#include "serve/replication/failover.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "serve/vfs.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve::replication {

FailoverCoordinator::FailoverCoordinator(std::string primary_data_dir, Vfs& vfs)
    : primary_dir_(std::move(primary_data_dir)), vfs_(&vfs) {}

PromotionReport FailoverCoordinator::promote(StandbyController& standby) {
    PromotionReport report;
    const ShipAck mark = standby.watermark();
    const std::vector<std::uint64_t> gens = list_wal_generations(*vfs_, primary_dir_);
    if (!gens.empty() && mark.generation <= gens.back()) {
        const std::uint64_t top = gens.back();
        // Releases are gated on acks, so every generation from the
        // standby's watermark to the newest must still exist; a hole is
        // unrecoverable data loss and promotion must fail loudly.
        for (std::uint64_t g = mark.generation; g <= top; ++g) {
            if (!std::binary_search(gens.begin(), gens.end(), g)) {
                throw ReplicationGapError(
                    g, "generation missing from the primary's directory "
                       "during promotion catch-up");
            }
        }
        for (std::uint64_t g = mark.generation; g <= top; ++g) {
            // Only the newest generation can carry a torn tail (the
            // primary appended to it when it died); older generations
            // were closed by rotation and must parse strictly.
            const WalReadMode mode =
                g == top ? WalReadMode::kRecover : WalReadMode::kStrict;
            const std::string path = wal_file_path(primary_dir_, g);
            const WalContents contents = read_wal(*vfs_, path, mode);
            if (contents.wal_seq != g) {
                throw CorruptStateError(path, 0,
                                        "WAL header generation " +
                                            std::to_string(contents.wal_seq) +
                                            " does not match its filename");
            }
            ++report.generations_scanned;
            if (g == top) {
                report.torn_tail_bytes = contents.bytes_discarded;
                report.torn_tail_records = contents.records_discarded;
            }
            for (const WalRecord& rec : contents.records) {
                if (standby.controller().apply_replicated(rec)) {
                    ++report.disk_records_applied;
                } else {
                    ++report.disk_records_skipped;
                }
            }
        }
    }
    // fsync-before-promote: the caught-up state must be durable in the
    // standby's own directory before it takes over admissions — a crash
    // right after promotion must not lose the inherited suffix.
    standby.controller().checkpoint();
    standby.controller().mark_promoted();
    report.promoted_digest = standby.controller().state_digest();
    return report;
}

}  // namespace vnfr::serve::replication
