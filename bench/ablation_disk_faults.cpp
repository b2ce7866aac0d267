// Disk-fault ablation: crash and storage-failure resilience of the serve
// layer's admission controller under both backup schemes, across pump
// batch sizes (one pump is one WAL commit group), on a fully simulated
// faulty disk (FaultyVfs).
//
// For each (scheme, pump batch) cell, one paper-environment trace is
// served uninterrupted as the baseline, then re-served under three fault
// families: cuts at scripted mutating-op indices, each under both crash
// kinds — a process crash (page cache survives) and a power cut (un-synced
// bytes drop, torn tails possible) — exhaustive over every such op in
// full mode, including both checkpoint-rotation stages and
// mid-batch appends; seeded transient EIO/short-write bursts the
// retry layer must absorb invisibly; and persistent ENOSPC that must
// degrade the controller into loud read-only mode and recover once space
// frees. Emits BENCH_disk_faults.json and exits nonzero when any gate
// fails:
//
//   * every cut trial revives to a bit-identical state digest, equal
//     revenue bits, the same admitted set (zero lost acked admissions,
//     zero double-charges), and zero capacity violations;
//   * every transient trial completes healthy with the baseline digest;
//   * every degraded trial refuses loudly while full, recovers (explicit
//     call and automatic probe paths both exercised), and finishes to
//     the baseline digest;
//   * every surviving directory passes a read-only WAL scrub, the
//     scrubber demonstrably detects a single flipped durable bit, and
//     reopening the baseline's own checkpoint reproduces its digest;
//   * all batch sizes of a scheme agree on the baseline digest — how many
//     records share a commit must not change decisions.
//
// Usage: ablation_disk_faults [output.json]
//   VNFR_BENCH_QUICK=1  sampled cut points and a smaller trace for CI
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "report/json.hpp"
#include "serve/faults/disk_fault_study.hpp"

using namespace vnfr;

namespace {

const char* scheme_name(core::Scheme scheme) {
    return scheme == core::Scheme::kOnsite ? "onsite" : "offsite";
}

/// Per-record fdatasync, a small commit group, and a large one.
constexpr std::size_t kBatches[] = {1, 4, 32};

struct CellResult {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::size_t batch{1};
    serve::DiskFaultStudyResult study;
    double seconds{0};
};

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_disk_faults.json");

    const bool quick = bench::quick_mode();
    const std::size_t requests = quick ? 80 : 160;
    const std::uint64_t master = bench::scenario_seed("disk_faults", requests);

    std::cout << "== Disk-fault ablation: process crashes, power cuts, "
                 "transient EIO, ENOSPC degradation ==\n";
    bench::print_thread_note();

    common::Rng rng = common::stream_rng(master, 0);
    const core::Instance instance =
        bench::make_factory(bench::paper_environment(requests))(rng);
    std::cout << "instance: " << instance.requests.size() << " requests, "
              << instance.network.cloudlet_count() << " cloudlets, horizon "
              << instance.horizon << "; cuts "
              << (quick ? "sampled (12 points x 2 kinds per cell)"
                        : "exhaustive over every mutating op x 2 kinds")
              << "\n\n";

    std::vector<CellResult> results;
    bool all_ok = true;
    std::uint64_t crash_trials = 0;
    std::uint64_t crash_failed = 0;
    std::uint64_t power_trials = 0;
    std::uint64_t power_failed = 0;
    std::uint64_t transient_trials = 0;
    std::uint64_t transient_failed = 0;
    std::uint64_t degraded_trials = 0;
    std::uint64_t degraded_failed = 0;
    for (const core::Scheme scheme :
         {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        const std::size_t first_cell = results.size();
        for (const std::size_t batch : kBatches) {
            serve::DiskFaultStudyConfig cfg;
            cfg.scheme = scheme;
            // Same fault streams for every batch cell of a scheme: the
            // sweep varies the commit batching, not the faults.
            cfg.master_seed =
                common::stream_seed(master, 1 + static_cast<std::uint64_t>(scheme));
            cfg.exhaustive_power_cuts = !quick;
            cfg.power_cut_points = 12;
            cfg.transient_trials = quick ? 3 : 8;
            cfg.degraded_trials = quick ? 2 : 6;
            cfg.checkpoint_every = 16;
            cfg.queue_capacity = 8;
            cfg.batch = batch;

            CellResult r;
            r.scheme = scheme;
            r.batch = batch;
            const auto start = std::chrono::steady_clock::now();
            r.study = serve::run_disk_fault_study(instance, cfg);
            r.seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

            std::size_t cell_crashes = 0;
            std::size_t cell_crashes_failed = 0;
            for (const serve::CutTrial& t : r.study.cut_trials) {
                if (t.kind == serve::CutKind::kProcessCrash) {
                    ++cell_crashes;
                    if (!t.ok()) ++cell_crashes_failed;
                }
                if (!t.ok()) {
                    std::cout << "  FAILED " << serve::cut_kind_name(t.kind)
                              << " at op " << t.cut_at_op << " (" << t.cut_op
                              << " " << t.cut_path << ")\n";
                }
            }
            crash_trials += cell_crashes;
            crash_failed += cell_crashes_failed;
            power_trials += r.study.cut_trials.size() - cell_crashes;
            power_failed += r.study.failed_cut_trials - cell_crashes_failed;
            transient_trials += r.study.transient_trials.size();
            transient_failed += r.study.failed_transient_trials;
            degraded_trials += r.study.degraded_trials.size();
            degraded_failed += r.study.failed_degraded_trials;

            std::cout << scheme_name(scheme) << " [b" << batch
                      << "]: baseline revenue " << r.study.baseline_metrics.revenue
                      << " (admitted " << r.study.baseline_metrics.admitted
                      << ", shed " << r.study.baseline_metrics.shed << "), digest "
                      << report::hex_u64(r.study.baseline_digest) << "\n  "
                      << cell_crashes << " process crashes ("
                      << cell_crashes_failed << " failed) and "
                      << r.study.cut_trials.size() - cell_crashes
                      << " power cuts ("
                      << r.study.failed_cut_trials - cell_crashes_failed
                      << " failed) over " << r.study.baseline_mutating_ops
                      << " mutating ops, "
                      << r.study.transient_trials.size() << " transient trials ("
                      << r.study.transient_faults_injected << " faults absorbed via "
                      << r.study.transient_retries_absorbed << " retries), "
                      << r.study.degraded_trials.size() << " ENOSPC trials ("
                      << r.study.failed_degraded_trials << " failed), scrub "
                      << (r.study.baseline_scrub_clean ? "clean" : "DIRTY")
                      << ", corruption-detect "
                      << (r.study.corruption_detected ? "yes" : "NO")
                      << ", reload-ok "
                      << (r.study.baseline_reload_ok ? "yes" : "NO") << ", "
                      << report::format_double(r.seconds, 2) << "s\n";
            if (!r.study.ok()) {
                std::cout << "  GATE FAILED for " << scheme_name(scheme) << " [b"
                          << batch << "]\n";
                all_ok = false;
            }
            if (results.size() > first_cell &&
                r.study.baseline_digest != results[first_cell].study.baseline_digest) {
                std::cout << "  GATE FAILED: " << scheme_name(scheme) << " [b"
                          << batch << "] baseline digest differs from the b"
                          << results[first_cell].batch << " cell\n";
                all_ok = false;
            }
            results.push_back(std::move(r));
        }
    }
    std::cout << '\n';

    const auto rate = [](std::uint64_t failed, std::uint64_t total) {
        return total == 0
                   ? 1.0
                   : static_cast<double>(total - failed) / static_cast<double>(total);
    };

    report::JsonValue doc = report::JsonValue::object();
    doc.set("bench", "disk_faults");
    doc.set("quick", quick);
    doc.set("requests", static_cast<std::uint64_t>(requests));
    doc.set("master_seed", report::hex_u64(master));
    report::JsonValue cells = report::JsonValue::array();
    for (const CellResult& r : results) {
        report::JsonValue row = report::JsonValue::object();
        row.set("scheme", scheme_name(r.scheme));
        row.set("batch", static_cast<std::uint64_t>(r.batch));
        row.set("baseline_digest", report::hex_u64(r.study.baseline_digest));
        row.set("baseline_revenue", r.study.baseline_metrics.revenue);
        row.set("baseline_admitted", r.study.baseline_metrics.admitted);
        row.set("baseline_rejected", r.study.baseline_metrics.rejected);
        row.set("baseline_shed", r.study.baseline_metrics.shed);
        row.set("baseline_mutating_ops", r.study.baseline_mutating_ops);
        row.set("baseline_reload_ok", r.study.baseline_reload_ok);
        row.set("baseline_capacity_ok", r.study.baseline_capacity_ok);
        row.set("baseline_scrub_clean", r.study.baseline_scrub_clean);
        row.set("corruption_detected", r.study.corruption_detected);
        row.set("cut_trials",
                static_cast<std::uint64_t>(r.study.cut_trials.size()));
        row.set("failed_cut_trials",
                static_cast<std::uint64_t>(r.study.failed_cut_trials));
        report::JsonValue failed_cuts = report::JsonValue::array();
        for (const serve::CutTrial& t : r.study.cut_trials) {
            if (t.ok()) continue;
            report::JsonValue tr = report::JsonValue::object();
            tr.set("kind", serve::cut_kind_name(t.kind));
            tr.set("cut_at_op", t.cut_at_op);
            tr.set("cut_op", t.cut_op);
            tr.set("cut_path", t.cut_path);
            failed_cuts.push(std::move(tr));
        }
        row.set("failed_cuts", std::move(failed_cuts));
        row.set("transient_trials",
                static_cast<std::uint64_t>(r.study.transient_trials.size()));
        row.set("failed_transient_trials",
                static_cast<std::uint64_t>(r.study.failed_transient_trials));
        row.set("transient_faults_injected", r.study.transient_faults_injected);
        row.set("transient_retries_absorbed", r.study.transient_retries_absorbed);
        row.set("degraded_trials",
                static_cast<std::uint64_t>(r.study.degraded_trials.size()));
        row.set("failed_degraded_trials",
                static_cast<std::uint64_t>(r.study.failed_degraded_trials));
        row.set("seconds", r.seconds);
        report::JsonValue degraded = report::JsonValue::array();
        for (const serve::DegradedModeTrial& t : r.study.degraded_trials) {
            report::JsonValue tr = report::JsonValue::object();
            tr.set("fail_from_write", t.fail_from_write);
            tr.set("entered_degraded", t.entered_degraded);
            tr.set("degraded_refusals", t.degraded_refusals);
            tr.set("recovered", t.recovered);
            tr.set("recovered_via_probe", t.recovered_via_probe);
            tr.set("digest_match", t.verdict.digest_match);
            degraded.push(std::move(tr));
        }
        row.set("degraded", std::move(degraded));
        cells.push(std::move(row));
    }
    doc.set("cells", std::move(cells));
    // Exact gates, not statistical ones: any failed trial drops the rate
    // below the baseline floor of 1.0 (tolerance 1.0).
    doc.set("process_crash_recovery_rate", rate(crash_failed, crash_trials));
    doc.set("power_cut_recovery_rate", rate(power_failed, power_trials));
    doc.set("transient_absorption_rate", rate(transient_failed, transient_trials));
    doc.set("degraded_recovery_rate", rate(degraded_failed, degraded_trials));
    doc.set("all_gates_passed", all_ok);

    std::ofstream out(out_path);
    out << doc.dump() << '\n';
    std::cout << "wrote " << out_path << '\n';

    if (!all_ok) {
        std::cerr << "FAIL: disk-fault resilience gates failed\n";
        return 1;
    }
    std::cout << "PASS: every process crash, power cut, transient burst, and "
                 "ENOSPC episode recovered bit-identically across the sweep\n";
    return 0;
}
