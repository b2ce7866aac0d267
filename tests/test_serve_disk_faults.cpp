// The disk-fault chaos study end to end: process crashes and power cuts
// at scripted mutating ops, transient EIO bursts absorbed by retries, and
// ENOSPC degradation with both recovery paths — all gated on
// bit-identical equivalence with an undisturbed run. A compact version of
// the ablation_disk_faults bench gate, sized for the unit suite.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "helpers.hpp"
#include "serve/faults/disk_fault_study.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

core::Instance fault_instance(std::size_t n) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        reqs.push_back(make_request(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(i % 2),
                                    0.90 + 0.004 * static_cast<double>(i % 10),
                                    static_cast<TimeSlot>((i * 7) / n),
                                    1 + static_cast<TimeSlot>(i % 3),
                                    1.0 + static_cast<double>((i * 11) % 17)));
    }
    // Tight capacity so admission, rejection and shedding all occur.
    return small_instance({0.98, 0.97, 0.99}, 10.0, 10, std::move(reqs));
}

/// Names a cut trial's exact cut, so a red matrix says where it died.
std::string describe(const CutTrial& trial) {
    return std::string(cut_kind_name(trial.kind)) + " at op " +
           std::to_string(trial.cut_at_op) + " (" + trial.cut_op + " " +
           trial.cut_path + ")";
}

DiskFaultStudyConfig study_config(core::Scheme scheme) {
    DiskFaultStudyConfig cfg;
    cfg.scheme = scheme;
    cfg.master_seed = 0xD15CULL;
    cfg.power_cut_points = 6;
    cfg.transient_trials = 2;
    cfg.degraded_trials = 2;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.group_commit = 4;
    return cfg;
}

void expect_study_ok(const DiskFaultStudyResult& result,
                     const DiskFaultStudyConfig& cfg) {
    EXPECT_TRUE(result.baseline_reload_ok);
    EXPECT_TRUE(result.baseline_capacity_ok);
    EXPECT_TRUE(result.baseline_scrub_clean);
    EXPECT_TRUE(result.corruption_detected);
    EXPECT_GT(result.baseline_mutating_ops, 0u);

    ASSERT_EQ(result.cut_trials.size(), 2 * cfg.power_cut_points);
    for (const CutTrial& trial : result.cut_trials) {
        EXPECT_TRUE(trial.cut_fired) << describe(trial);
        EXPECT_TRUE(trial.verdict.digest_match) << describe(trial);
        EXPECT_TRUE(trial.verdict.revenue_match) << describe(trial);
        EXPECT_TRUE(trial.verdict.no_double_admits) << describe(trial);
        EXPECT_TRUE(trial.verdict.capacity_ok) << describe(trial);
        EXPECT_TRUE(trial.verdict.scrub_clean) << describe(trial);
    }
    EXPECT_EQ(result.failed_cut_trials, 0u);

    ASSERT_EQ(result.transient_trials.size(), cfg.transient_trials);
    for (const TransientFaultTrial& trial : result.transient_trials) {
        EXPECT_TRUE(trial.stayed_healthy);
        EXPECT_TRUE(trial.verdict.digest_match);
    }
    EXPECT_EQ(result.failed_transient_trials, 0u);
    EXPECT_GT(result.transient_faults_injected, 0u);  // actually exposed

    ASSERT_EQ(result.degraded_trials.size(), cfg.degraded_trials);
    bool via_probe = false;
    for (const DegradedModeTrial& trial : result.degraded_trials) {
        EXPECT_TRUE(trial.entered_degraded)
            << "ENOSPC from write " << trial.fail_from_write;
        EXPECT_GT(trial.degraded_refusals, 0u);
        EXPECT_TRUE(trial.recovered);
        EXPECT_TRUE(trial.verdict.digest_match)
            << "ENOSPC from write " << trial.fail_from_write;
        via_probe = via_probe || trial.recovered_via_probe;
    }
    EXPECT_TRUE(via_probe);  // the automatic probe path was exercised
    EXPECT_EQ(result.failed_degraded_trials, 0u);

    EXPECT_TRUE(result.ok());
}

TEST(ServeDiskFaults, OnsiteSurvivesTheFullFaultMatrix) {
    const core::Instance inst = fault_instance(48);
    const DiskFaultStudyConfig cfg = study_config(core::Scheme::kOnsite);
    const DiskFaultStudyResult result = run_disk_fault_study(inst, cfg);
    EXPECT_EQ(result.baseline_outcomes, 48u);  // every request decided or shed
    EXPECT_GT(result.baseline_metrics.shed, 0u);
    expect_study_ok(result, cfg);
}

TEST(ServeDiskFaults, OffsiteSurvivesTheFullFaultMatrix) {
    const core::Instance inst = fault_instance(48);
    const DiskFaultStudyConfig cfg = study_config(core::Scheme::kOffsite);
    const DiskFaultStudyResult result = run_disk_fault_study(inst, cfg);
    EXPECT_EQ(result.baseline_outcomes, 48u);
    expect_study_ok(result, cfg);
}

TEST(ServeDiskFaults, ExhaustiveCutsCoverEveryMutatingOp) {
    const core::Instance inst = fault_instance(24);
    DiskFaultStudyConfig cfg = study_config(core::Scheme::kOnsite);
    cfg.exhaustive_power_cuts = true;
    cfg.transient_trials = 0;
    cfg.degraded_trials = 0;
    const DiskFaultStudyResult result = run_disk_fault_study(inst, cfg);
    const std::size_t kinds = std::size(kCutTrialKinds);
    ASSERT_EQ(result.cut_trials.size(),
              kinds * static_cast<std::size_t>(result.baseline_mutating_ops));
    // The cut indices tile [1 .. M] once per crash kind: every write,
    // sync, truncate, create, rename, unlink, and dirsync of the run —
    // including both checkpoint-rotation stages and mid-group-commit
    // appends.
    std::set<std::string> ledger_ops[std::size(kCutTrialKinds)];
    for (std::size_t i = 0; i < result.cut_trials.size(); ++i) {
        const CutTrial& trial = result.cut_trials[i];
        EXPECT_EQ(trial.cut_at_op, static_cast<std::uint64_t>(i / kinds + 1));
        EXPECT_EQ(trial.kind, kCutTrialKinds[i % kinds]);
        EXPECT_TRUE(trial.ok()) << describe(trial);
        if (trial.cut_path.find("snapshot.ledger") != std::string::npos) {
            ledger_ops[i % kinds].insert(trial.cut_op);
        }
    }
    // Each rotation's ledger steps are cut under both kinds: creating the
    // ledger, appending the new admissions, and their fdatasync.
    for (const std::set<std::string>& ops : ledger_ops) {
        for (const char* op : {"create", "write", "fdatasync"}) {
            EXPECT_TRUE(ops.contains(op)) << "no cut at a ledger " << op;
        }
    }
    EXPECT_EQ(result.failed_cut_trials, 0u);
    EXPECT_TRUE(result.ok());
}

TEST(ServeDiskFaults, StudyIsDeterministicForAFixedSeed) {
    const core::Instance inst = fault_instance(32);
    DiskFaultStudyConfig cfg = study_config(core::Scheme::kOnsite);
    cfg.power_cut_points = 3;
    cfg.transient_trials = 1;
    cfg.degraded_trials = 1;
    const DiskFaultStudyResult a = run_disk_fault_study(inst, cfg);
    const DiskFaultStudyResult b = run_disk_fault_study(inst, cfg);
    EXPECT_EQ(a.baseline_digest, b.baseline_digest);
    EXPECT_EQ(a.baseline_mutating_ops, b.baseline_mutating_ops);
    ASSERT_EQ(a.cut_trials.size(), b.cut_trials.size());
    for (std::size_t i = 0; i < a.cut_trials.size(); ++i) {
        EXPECT_EQ(a.cut_trials[i].kind, b.cut_trials[i].kind);
        EXPECT_EQ(a.cut_trials[i].cut_at_op, b.cut_trials[i].cut_at_op);
        EXPECT_EQ(a.cut_trials[i].cut_path, b.cut_trials[i].cut_path);
        EXPECT_EQ(a.cut_trials[i].submitted_at_cut,
                  b.cut_trials[i].submitted_at_cut);
        EXPECT_EQ(a.cut_trials[i].recovered_torn_tail_bytes,
                  b.cut_trials[i].recovered_torn_tail_bytes);
    }
    ASSERT_EQ(a.transient_trials.size(), b.transient_trials.size());
    EXPECT_EQ(a.transient_faults_injected, b.transient_faults_injected);
    EXPECT_EQ(a.transient_retries_absorbed, b.transient_retries_absorbed);
    ASSERT_EQ(a.degraded_trials.size(), b.degraded_trials.size());
    for (std::size_t i = 0; i < a.degraded_trials.size(); ++i) {
        EXPECT_EQ(a.degraded_trials[i].fail_from_write,
                  b.degraded_trials[i].fail_from_write);
        EXPECT_EQ(a.degraded_trials[i].degraded_refusals,
                  b.degraded_trials[i].degraded_refusals);
    }
}

TEST(ServeDiskFaults, RejectsAnEmptyTrace) {
    const core::Instance inst = small_instance({0.98}, 10.0, 4, {});
    EXPECT_THROW(run_disk_fault_study(inst, study_config(core::Scheme::kOnsite)),
                 std::invalid_argument);
}

// Randomized kills: the cut-only slice of the study at group commit 1,
// where a sampled op index lands after, inside, or before a single WAL
// record's append. Every process crash (page cache kept) and every power
// cut (un-synced tail dropped or torn) must revive to the undisturbed
// run's state bit-for-bit.
DiskFaultStudyConfig kill_config(core::Scheme scheme) {
    DiskFaultStudyConfig cfg = study_config(scheme);
    cfg.master_seed = 0xC0FFEEull;
    cfg.power_cut_points = 6;
    cfg.transient_trials = 0;
    cfg.degraded_trials = 0;
    cfg.group_commit = 1;
    return cfg;
}

void expect_kills_survived(const DiskFaultStudyResult& result,
                           const DiskFaultStudyConfig& cfg) {
    EXPECT_TRUE(result.baseline_reload_ok);
    EXPECT_TRUE(result.baseline_capacity_ok);
    EXPECT_TRUE(result.baseline_scrub_clean);
    ASSERT_EQ(result.cut_trials.size(),
              std::size(kCutTrialKinds) * cfg.power_cut_points);
    std::size_t crashes = 0;
    std::size_t torn = 0;
    for (const CutTrial& trial : result.cut_trials) {
        EXPECT_TRUE(trial.cut_fired) << describe(trial);
        EXPECT_TRUE(trial.verdict.digest_match) << describe(trial);
        EXPECT_TRUE(trial.verdict.revenue_match) << describe(trial);
        EXPECT_TRUE(trial.verdict.metrics_match) << describe(trial);
        EXPECT_TRUE(trial.verdict.admitted_match) << describe(trial);
        EXPECT_TRUE(trial.verdict.no_double_admits) << describe(trial);
        EXPECT_TRUE(trial.verdict.capacity_ok) << describe(trial);
        EXPECT_TRUE(trial.verdict.scrub_clean) << describe(trial);
        if (trial.kind == CutKind::kProcessCrash) ++crashes;
        if (trial.recovered_torn_tail_bytes > 0) ++torn;
    }
    EXPECT_EQ(crashes, cfg.power_cut_points);  // every point killed once
    EXPECT_GT(torn, 0u);  // the torn-tail recovery path was exercised
    EXPECT_EQ(result.failed_cut_trials, 0u);
    EXPECT_TRUE(result.ok());
}

TEST(ServeChaos, OnsiteSurvivesRandomizedKillsBitIdentically) {
    const core::Instance inst = fault_instance(48);
    const DiskFaultStudyConfig cfg = kill_config(core::Scheme::kOnsite);
    const DiskFaultStudyResult result = run_disk_fault_study(inst, cfg);
    EXPECT_EQ(result.baseline_outcomes, 48u);  // every request decided or shed
    EXPECT_GT(result.baseline_metrics.shed, 0u);
    expect_kills_survived(result, cfg);
}

TEST(ServeChaos, OffsiteSurvivesRandomizedKillsBitIdentically) {
    const core::Instance inst = fault_instance(48);
    const DiskFaultStudyConfig cfg = kill_config(core::Scheme::kOffsite);
    const DiskFaultStudyResult result = run_disk_fault_study(inst, cfg);
    EXPECT_EQ(result.baseline_outcomes, 48u);
    expect_kills_survived(result, cfg);
}

TEST(ServeChaos, StudyIsDeterministicForAFixedSeed) {
    const core::Instance inst = fault_instance(32);
    DiskFaultStudyConfig cfg = kill_config(core::Scheme::kOnsite);
    cfg.power_cut_points = 3;
    const DiskFaultStudyResult a = run_disk_fault_study(inst, cfg);
    const DiskFaultStudyResult b = run_disk_fault_study(inst, cfg);
    EXPECT_EQ(a.baseline_digest, b.baseline_digest);
    ASSERT_EQ(a.cut_trials.size(), b.cut_trials.size());
    for (std::size_t i = 0; i < a.cut_trials.size(); ++i) {
        EXPECT_EQ(a.cut_trials[i].kind, b.cut_trials[i].kind);
        EXPECT_EQ(a.cut_trials[i].cut_at_op, b.cut_trials[i].cut_at_op);
        EXPECT_EQ(a.cut_trials[i].cut_op, b.cut_trials[i].cut_op);
        EXPECT_EQ(a.cut_trials[i].submitted_at_cut,
                  b.cut_trials[i].submitted_at_cut);
        EXPECT_EQ(a.cut_trials[i].recovered_torn_tail_bytes,
                  b.cut_trials[i].recovered_torn_tail_bytes);
    }
}

TEST(ServeChaos, RejectsAnEmptyTrace) {
    const core::Instance inst = small_instance({0.98}, 10.0, 4, {});
    EXPECT_THROW(run_disk_fault_study(inst, kill_config(core::Scheme::kOnsite)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::serve
