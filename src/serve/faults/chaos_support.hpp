// Shared plumbing for the crash harnesses (disk_fault_study and the
// failover study): the deterministic drive pattern and the one
// compare-to-baseline verdict every trial is gated on. Header-only so
// both studies judge runs with literally the same code.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/verify.hpp"
#include "serve/admission_controller.hpp"
#include "serve/faults/wal_scrubber.hpp"

namespace vnfr::serve::chaos {

/// Progress markers the driver updates as it goes, so a CrashInjected
/// unwind tells the recovery path exactly where the stream stood.
struct DriveProgress {
    std::size_t submitted{0};  ///< completed submit() calls
    bool in_drain{false};      ///< the crash interrupted a drain
};

/// Drives `requests[start..N)` into the controller with the studies'
/// deterministic pattern: drain after every `drain_every`-th submit
/// (position-based, so interrupted and resumed runs fire the same
/// drains), plus a final drain. When `refire_drain` is set, an
/// interrupted drain is completed first — before any new submissions —
/// which restores the exact decision order of the uninterrupted run.
/// `tick` (when set) runs after every submit/drain step; the failover
/// study uses it to pump replication at a configurable cadence.
template <typename Tick>
void drive_with_tick(AdmissionController& controller,
                     const std::vector<workload::Request>& requests,
                     std::size_t start, bool refire_drain,
                     std::size_t drain_every, DriveProgress& progress,
                     Tick&& tick) {
    progress.submitted = start;
    if (refire_drain) {
        progress.in_drain = true;
        controller.drain();
        progress.in_drain = false;
        tick();
    }
    for (std::size_t i = start; i < requests.size(); ++i) {
        progress.submitted = i;
        progress.in_drain = false;
        controller.submit(i, requests[i]);
        progress.submitted = i + 1;
        tick();
        if ((i + 1) % drain_every == 0) {
            progress.in_drain = true;
            controller.drain();
            progress.in_drain = false;
            tick();
        }
    }
    progress.in_drain = true;
    controller.drain();
    progress.in_drain = false;
    tick();
}

inline void drive(AdmissionController& controller,
                  const std::vector<workload::Request>& requests,
                  std::size_t start, bool refire_drain, std::size_t drain_every,
                  DriveProgress& progress) {
    drive_with_tick(controller, requests, start, refire_drain, drain_every,
                    progress, [] {});
}

/// Re-submits every not-yet-durable request below `through` (normal
/// submit path: covered seqs skip, shedding logic stays active), exactly
/// reconstructing the crash-time queue.
inline void rebuild_queue(AdmissionController& controller,
                          const std::vector<workload::Request>& requests,
                          std::size_t through) {
    for (std::uint64_t i = controller.resume_cursor(); i < through; ++i) {
        controller.submit(i, requests[static_cast<std::size_t>(i)]);
    }
}

/// Assembles a per-request decision vector from the controller's durable
/// admitted ledger (everything else default-rejected) for independent
/// verification.
inline std::vector<core::Decision> assemble_decisions(
    const core::Instance& instance, const AdmissionController& controller) {
    std::vector<core::Decision> decisions(instance.requests.size());
    for (const AdmittedRecord& rec : controller.admitted_records()) {
        if (rec.seq >= decisions.size()) continue;  // caught by admitted_match
        core::Decision& d = decisions[static_cast<std::size_t>(rec.seq)];
        d.admitted = true;
        d.placement.request = instance.requests[static_cast<std::size_t>(rec.seq)].id;
        for (const auto& [cloudlet, replicas] : rec.sites) {
            d.placement.sites.push_back(
                core::Site{CloudletId{cloudlet}, static_cast<int>(replicas)});
        }
    }
    return decisions;
}

/// True when a cut at an op on `path` landed inside a checkpoint
/// rotation: appending to (or creating) the admitted ledger, creating the
/// next WAL generation (published through `wal-<g>.log.tmp`) or
/// publishing the snapshot.
inline bool cut_in_rotation(const std::string& path) {
    return path.find("snapshot.bin") != std::string::npos ||
           path.find("snapshot.ledger") != std::string::npos ||
           path.ends_with(".log.tmp");
}

/// What an uninterrupted run ended at; every trial is compared to it.
struct Baseline {
    std::uint64_t digest{0};
    ServeMetrics metrics;
    std::vector<AdmittedRecord> admitted;
};

inline Baseline capture_baseline(const AdmissionController& controller) {
    return Baseline{controller.state_digest(), controller.metrics(),
                    controller.admitted_records()};
}

/// The gates a finished trial must pass against its baseline.
struct Verdict {
    bool digest_match{false};    ///< state digest equals the baseline's
    bool revenue_match{false};   ///< revenue + shed revenue bit-equal
    bool metrics_match{false};   ///< all counters equal
    bool admitted_match{false};  ///< same admitted (seq, id, sites) sequence
    bool no_double_admits{false};
    bool capacity_ok{false};     ///< verify_schedule found no violations
    /// A read-only WAL scrub of the controller's data directory reports
    /// zero findings: every retained generation and the snapshot
    /// re-verify their CRCs and cross-file invariants.
    bool scrub_clean{false};

    [[nodiscard]] bool ok() const {
        return digest_match && revenue_match && metrics_match &&
               admitted_match && no_double_admits && capacity_ok && scrub_clean;
    }
};

/// Judges `controller`, which finished the trace over `data_dir` on its
/// own Vfs, against `baseline`.
inline Verdict judge(const core::Instance& instance,
                     const AdmissionController& controller,
                     const std::string& data_dir, const Baseline& baseline) {
    Verdict v;
    v.digest_match = controller.state_digest() == baseline.digest;
    const ServeMetrics m = controller.metrics();
    v.revenue_match = m.revenue == baseline.metrics.revenue &&
                      m.shed_revenue == baseline.metrics.shed_revenue;
    v.metrics_match = m.processed == baseline.metrics.processed &&
                      m.admitted == baseline.metrics.admitted &&
                      m.rejected == baseline.metrics.rejected &&
                      m.shed == baseline.metrics.shed;
    const std::vector<AdmittedRecord> admitted = controller.admitted_records();
    v.admitted_match = admitted.size() == baseline.admitted.size();
    for (std::size_t i = 0; v.admitted_match && i < admitted.size(); ++i) {
        const AdmittedRecord& a = admitted[i];
        const AdmittedRecord& b = baseline.admitted[i];
        v.admitted_match = a.seq == b.seq && a.request_id == b.request_id &&
                           a.payment == b.payment && a.sites == b.sites;
    }
    std::set<std::uint64_t> seqs;
    std::set<std::int64_t> ids;
    v.no_double_admits = true;
    for (const AdmittedRecord& rec : admitted) {
        v.no_double_admits = v.no_double_admits && seqs.insert(rec.seq).second &&
                             ids.insert(rec.request_id).second;
    }
    v.capacity_ok =
        core::verify_schedule(instance, assemble_decisions(instance, controller))
            .ok();
    v.scrub_clean = scrub_data_dir(controller.vfs(), data_dir).clean();
    return v;
}

}  // namespace vnfr::serve::chaos
