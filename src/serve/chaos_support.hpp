// Shared plumbing for the chaos harnesses (chaos_study and the failover
// study): scratch-directory hygiene, the deterministic drive pattern, and
// the baseline-equivalence predicates every trial is gated on. Header-only
// so both studies compare runs with literally the same code.
#pragma once

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "serve/admission_controller.hpp"
#include "serve/vfs.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve::chaos {

/// Creates `path` if needed and removes any controller state files left
/// by a previous run, so every trial starts from a virgin directory.
inline void fresh_state_dir(const std::string& path) {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
        throw std::invalid_argument("chaos study: cannot create state dir " + path);
    }
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) {
        throw std::invalid_argument("chaos study: cannot open state dir " + path);
    }
    std::vector<std::string> doomed;
    while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name.starts_with("wal-") || name.starts_with("snapshot.bin")) {
            doomed.push_back(path + "/" + name);
        }
    }
    ::closedir(dir);
    for (const std::string& file : doomed) posix_vfs().unlink(file);
}

/// The WAL file in `path` with the highest generation number (the live
/// one under rotation — with retention enabled older generations linger),
/// or empty when none exists yet.
inline std::string newest_wal_file(const std::string& path) {
    const std::vector<std::uint64_t> gens = list_wal_generations(posix_vfs(), path);
    return gens.empty() ? std::string() : wal_file_path(path, gens.back());
}

inline std::uint64_t file_size(const std::string& path) {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

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

inline bool same_admitted(const std::vector<AdmittedRecord>& a,
                          const std::vector<AdmittedRecord>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].seq != b[i].seq || a[i].request_id != b[i].request_id ||
            a[i].payment != b[i].payment || a[i].sites != b[i].sites) {
            return false;
        }
    }
    return true;
}

inline bool unique_admitted(const std::vector<AdmittedRecord>& records) {
    std::set<std::uint64_t> seqs;
    std::set<std::int64_t> ids;
    for (const AdmittedRecord& rec : records) {
        if (!seqs.insert(rec.seq).second) return false;
        if (!ids.insert(rec.request_id).second) return false;
    }
    return true;
}

inline bool metrics_equal(const ServeMetrics& a, const ServeMetrics& b) {
    return a.processed == b.processed && a.admitted == b.admitted &&
           a.rejected == b.rejected && a.shed == b.shed;
}

}  // namespace vnfr::serve::chaos
