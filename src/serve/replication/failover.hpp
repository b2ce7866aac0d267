// Promotes a standby after the primary dies: replays the un-acked suffix
// of the primary's on-disk WAL tail into the standby (the covered set
// absorbs everything replication already delivered, so replay is
// idempotent and double-charges are structurally impossible), persists a
// checkpoint of the caught-up state (fsync-before-promote — the
// vnfr_asa replication-promote-checkpoint rule pins this order), and only
// then flips the controller to the primary role so it resumes admissions.
//
// Crash-window inventory the catch-up must absorb:
//   - standby lag: whole durable groups the shipper never sent
//   - mid-ship: frames in flight (sent, not applied) at the kill
//   - mid-group-commit: a torn record at the primary WAL tail (kRecover
//     drops it — the request was never durably decided, so the promoted
//     controller simply decides it afresh when resubmitted)
//   - mid-checkpoint-rotation: the next generation's file exists with
//     zero records, or the snapshot is newer than the live WAL; both are
//     ordinary shapes for generation-ordered replay
#pragma once

#include <cstdint>
#include <string>

#include "serve/replication/standby.hpp"

namespace vnfr::serve {
class Vfs;
}  // namespace vnfr::serve

namespace vnfr::serve::replication {

struct PromotionReport {
    /// Records recovered from the primary's disk tail that replication
    /// had NOT yet applied — the zero-lost-decisions gap being closed.
    std::uint64_t disk_records_applied{0};
    /// Records in the scanned tail the covered set absorbed (already
    /// applied via shipping) — the zero-double-charges half.
    std::uint64_t disk_records_skipped{0};
    std::uint64_t generations_scanned{0};
    /// Torn tail dropped from the primary's final generation (a
    /// mid-append crash); those bytes were never durable, hence never a
    /// decision to preserve.
    std::uint64_t torn_tail_bytes{0};
    std::uint64_t torn_tail_records{0};
    std::uint64_t promoted_digest{0};
};

class FailoverCoordinator {
  public:
    /// `primary_data_dir` is the dead primary's state directory; its
    /// files must be quiescent (the primary process is gone — a primary
    /// that merely degraded into read-only mode counts as gone, since it
    /// refuses admissions and will never append again). `vfs` is the
    /// storage the primary's files live on (`posix_vfs()` for the real
    /// disk).
    FailoverCoordinator(std::string primary_data_dir, Vfs& vfs);

    /// Catches `standby` up from the primary's durable WAL tail and
    /// promotes it. Throws ReplicationGapError if a generation between
    /// the standby's watermark and the primary's newest is missing on
    /// disk (releases are gated on acks, so a hole means real data loss
    /// — promotion must fail loudly, not resume with silent gaps), and
    /// CorruptStateError if the tail is corrupt before its final record
    /// or replay diverges from a logged outcome.
    PromotionReport promote(StandbyController& standby);

  private:
    std::string primary_dir_;
    Vfs* vfs_;
};

}  // namespace vnfr::serve::replication
