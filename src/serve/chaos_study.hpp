// Chaos harness for the admission controller: run a request trace to
// completion once (the baseline), then repeatedly kill the controller at
// randomized WAL-append points, restart it from disk, finish the trace,
// and check that the recovered run is indistinguishable from the
// uninterrupted one — bit-identical state digest, identical revenue bits,
// the same admitted set with no double-admits, and zero capacity
// violations under independent verification (core::verify_schedule).
//
// Kill points and driving pattern derive from counter-based RNG streams
// of the master seed, so a study is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/offline.hpp"
#include "serve/snapshot.hpp"

namespace vnfr::serve {

struct ChaosStudyConfig {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::uint64_t master_seed{0};
    /// Number of randomized kill-and-restart trials.
    std::size_t kill_points{25};
    /// Instead of sampling `kill_points` random crash points, kill at
    /// EVERY WAL append of the baseline run (1 .. outcomes-1). With
    /// group_commit = B this sweeps every batch boundary (kill point
    /// divisible by B) and every mid-batch position — the crash matrix.
    bool exhaustive_kill_points{false};
    /// Controller snapshot cadence (WAL records between checkpoints).
    std::size_t checkpoint_every{16};
    /// Admission queue bound; the drive pattern overflows it on purpose
    /// so shedding is exercised across crashes.
    std::size_t queue_capacity{8};
    /// Passed through to ServeConfig: WAL records per fdatasync in pump.
    std::size_t group_commit{1};
    /// Additionally truncate the WAL tail by a few bytes on every other
    /// trial, simulating a torn final append (with group commit the cut
    /// can land inside a committed group — a torn group write).
    bool torn_tails{true};
    /// Scratch directory for controller state; the study creates and
    /// reuses `<work_dir>/baseline` and `<work_dir>/trial`.
    std::string work_dir;
};

/// One kill-and-restart trial's outcome; `ok()` is the acceptance gate.
struct ChaosTrial {
    std::uint64_t kill_after_records{0};  ///< crash after this many WAL appends
    /// The kill point is NOT a group-commit boundary: the crash lands
    /// with staged-but-unsynced records that die with the process.
    bool mid_batch{false};
    bool crashed{false};                  ///< the injected crash actually fired
    bool torn_tail_applied{false};
    std::uint64_t truncated_bytes{0};
    /// What WAL recovery *observed* on revival (RecoveryStats): bytes and
    /// record fragments dropped as a torn tail. Nonzero whenever the crash
    /// itself tore an append, not only when the study truncated the file.
    std::uint64_t recovered_torn_tail_bytes{0};
    std::uint64_t recovered_torn_tail_records{0};
    std::size_t submitted_at_crash{0};    ///< completed submits before the crash
    bool digest_match{false};    ///< state digest equals the baseline's
    bool revenue_match{false};   ///< revenue + shed revenue bit-equal
    bool metrics_match{false};   ///< all counters equal
    bool admitted_match{false};  ///< same admitted (seq, id) sequence
    bool no_double_admits{false};
    bool capacity_ok{false};     ///< verify_schedule found no violations
    /// A read-only WAL scrub of the trial directory after the recovered
    /// run finished reports zero findings: every retained generation and
    /// the snapshot re-verify their CRCs and cross-file invariants.
    bool scrub_clean{false};

    [[nodiscard]] bool ok() const {
        return crashed && digest_match && revenue_match && metrics_match &&
               admitted_match && no_double_admits && capacity_ok &&
               scrub_clean;
    }
};

struct ChaosStudyResult {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::uint64_t baseline_digest{0};
    ServeMetrics baseline_metrics;
    /// Outcomes (decisions + sheds) in the baseline run — one per request.
    std::uint64_t baseline_outcomes{0};
    /// Restarting an idle controller from its own checkpoint reproduces
    /// the digest.
    bool baseline_reload_ok{false};
    /// The baseline itself passes independent schedule verification.
    bool baseline_capacity_ok{false};
    /// Scrubbing the baseline's directory after its final checkpoint
    /// reports zero findings.
    bool baseline_scrub_clean{false};
    std::vector<ChaosTrial> trials;
    std::size_t failed_trials{0};

    [[nodiscard]] bool ok() const {
        return baseline_reload_ok && baseline_capacity_ok &&
               baseline_scrub_clean && failed_trials == 0;
    }
};

/// Runs the study over `instance.requests` as the stream. Throws
/// std::invalid_argument for an empty trace or missing work_dir.
ChaosStudyResult run_chaos_study(const core::Instance& instance,
                                 const ChaosStudyConfig& config);

}  // namespace vnfr::serve
