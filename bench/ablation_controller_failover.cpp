// Controller failover ablation: primary-kill/standby-promote equivalence
// of the replicated admission controller.
//
// For each scheme ({onsite, offsite}) and each standby-lag setting
// (replication beats every 1 / every 7 drive steps), one
// paper-environment trace is first served uninterrupted (the baseline),
// then re-served dozens of times with the primary — on a simulated disk
// (FaultyVfs) — cut at a randomized mutating storage op, the crash kind
// cycling process crash / torn-tail power cut / clean power cut by
// trial, and an adversarial replication link
// (drop/truncate/duplicate/reorder) on odd trials. The standby is
// promoted from the dead primary's surviving WAL tail and finishes the
// trace. Emits BENCH_controller_failover.json and exits
// nonzero when any acceptance gate fails:
//
//   * every trial's promoted standby reaches a bit-identical state
//     digest, equal revenue bits, the same admitted set (no
//     double-admits), zero capacity violations, and a clean scrub of its
//     own files;
//   * the no-kill control promotes a fully shipped standby to the
//     baseline digest with zero records recovered from disk, and the
//     shipper released at least one acked generation (bounded retention);
//   * across the full matrix at least one trial recovered real standby
//     lag from the disk tail, and the faulty-link trials actually
//     dropped frames (the adversarial paths ran).
//
// Usage: ablation_controller_failover [output.json]
//   VNFR_BENCH_QUICK=1  shrink the trace and trial counts for smoke/CI
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "report/json.hpp"
#include "serve/faults/failover_chaos.hpp"

using namespace vnfr;

namespace {

const char* scheme_name(core::Scheme scheme) {
    return scheme == core::Scheme::kOnsite ? "onsite" : "offsite";
}

struct CellResult {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::size_t ship_every{1};
    serve::replication::FailoverChaosResult study;
    double seconds{0};
};

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_controller_failover.json");

    const std::size_t requests = bench::quick_mode() ? 100 : 240;
    // >= 25 randomized cut points per scheme across the lag settings.
    const std::size_t kills_per_cell = bench::quick_mode() ? 5 : 13;
    const std::size_t lag_settings[] = {1, 7};
    const std::uint64_t master = bench::scenario_seed("controller_failover", requests);

    std::cout << "== Controller failover ablation: kill/promote equivalence ==\n";
    bench::print_thread_note();

    common::Rng rng = common::stream_rng(master, 0);
    const core::Instance instance =
        bench::make_factory(bench::paper_environment(requests))(rng);
    std::cout << "instance: " << instance.requests.size() << " requests, "
              << instance.network.cloudlet_count() << " cloudlets, horizon "
              << instance.horizon << "; " << kills_per_cell
              << " kill points per (scheme, lag) cell\n\n";

    std::vector<CellResult> results;
    bool all_ok = true;
    std::uint64_t total_trials = 0;
    std::uint64_t total_failed = 0;
    std::uint64_t total_disk_applied = 0;
    std::uint64_t total_dropped = 0;
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        for (const std::size_t lag : lag_settings) {
            serve::replication::FailoverChaosConfig cfg;
            cfg.scheme = scheme;
            // Same kill-point stream for every lag cell of a scheme: the
            // matrix varies replication cadence, not the crashes.
            cfg.master_seed =
                common::stream_seed(master, 1 + static_cast<std::uint64_t>(scheme));
            cfg.kill_points = kills_per_cell;
            cfg.checkpoint_every = 16;
            cfg.queue_capacity = 8;
            cfg.batch = 4;
            cfg.ship_every = lag;

            CellResult r;
            r.scheme = scheme;
            r.ship_every = lag;
            const auto start = std::chrono::steady_clock::now();
            r.study = serve::replication::run_failover_chaos_study(instance, cfg);
            r.seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                    .count();

            std::size_t rotation_kills = 0;
            std::size_t process_crashes = 0;
            for (const serve::replication::FailoverTrial& t : r.study.trials) {
                if (serve::chaos::cut_in_rotation(t.cut_path)) ++rotation_kills;
                if (t.kind == serve::CutKind::kProcessCrash) ++process_crashes;
                if (!t.ok()) {
                    std::cout << "  FAILED " << serve::cut_kind_name(t.kind)
                              << " at op " << t.cut_at_op << " (" << t.cut_op
                              << " " << t.cut_path << ")\n";
                }
            }
            total_trials += r.study.trials.size();
            total_failed += r.study.failed_trials;
            total_disk_applied += r.study.total_disk_records_applied;
            total_dropped += r.study.link_faults.frames_dropped;
            std::cout << scheme_name(scheme) << " [lag " << lag
                      << "]: baseline revenue " << r.study.baseline_metrics.revenue
                      << ", digest " << report::hex_u64(r.study.baseline_digest)
                      << "\n  " << r.study.trials.size() << " kill trials ("
                      << rotation_kills << " mid-rotation, " << process_crashes
                      << " process crashes), " << r.study.failed_trials
                      << " failed; sync-promote "
                      << (r.study.sync_promote_ok ? "ok" : "FAILED")
                      << ", release " << (r.study.sync_release_ok ? "ok" : "FAILED")
                      << "; disk catch-up " << r.study.total_disk_records_applied
                      << " records, " << r.study.link_faults.frames_dropped
                      << " frames dropped, "
                      << report::format_double(r.seconds, 2) << "s\n";
            if (!r.study.ok()) {
                std::cout << "  GATE FAILED for " << scheme_name(scheme)
                          << " [lag " << lag << "]\n";
                all_ok = false;
            }
            results.push_back(std::move(r));
        }
    }
    if (total_disk_applied == 0) {
        std::cout << "GATE FAILED: no trial recovered standby lag from disk\n";
        all_ok = false;
    }
    if (total_dropped == 0) {
        std::cout << "GATE FAILED: the adversarial link never dropped a frame\n";
        all_ok = false;
    }
    std::cout << '\n';

    const double recovery_rate =
        total_trials == 0
            ? 0.0
            : static_cast<double>(total_trials - total_failed) /
                  static_cast<double>(total_trials);

    report::JsonValue doc = report::JsonValue::object();
    doc.set("bench", "controller_failover");
    doc.set("quick", bench::quick_mode());
    doc.set("requests", static_cast<std::uint64_t>(requests));
    doc.set("master_seed", report::hex_u64(master));
    doc.set("failover_recovery_rate", recovery_rate);
    doc.set("total_trials", total_trials);
    doc.set("total_failed", total_failed);
    doc.set("total_disk_records_applied", total_disk_applied);
    report::JsonValue cells = report::JsonValue::array();
    for (const CellResult& r : results) {
        report::JsonValue row = report::JsonValue::object();
        row.set("scheme", scheme_name(r.scheme));
        row.set("ship_every", static_cast<std::uint64_t>(r.ship_every));
        row.set("baseline_digest", report::hex_u64(r.study.baseline_digest));
        row.set("baseline_revenue", r.study.baseline_metrics.revenue);
        row.set("baseline_admitted", r.study.baseline_metrics.admitted);
        row.set("baseline_shed", r.study.baseline_metrics.shed);
        row.set("baseline_capacity_ok", r.study.baseline_capacity_ok);
        row.set("sync_promote_ok", r.study.sync_promote_ok);
        row.set("sync_release_ok", r.study.sync_release_ok);
        row.set("kill_trials", static_cast<std::uint64_t>(r.study.trials.size()));
        row.set("failed_trials", static_cast<std::uint64_t>(r.study.failed_trials));
        row.set("resync_rewinds", r.study.total_resync_rewinds);
        row.set("frames_sent", r.study.transport_totals.frames_sent);
        row.set("frames_dropped", r.study.link_faults.frames_dropped);
        row.set("frames_truncated", r.study.link_faults.frames_truncated);
        row.set("frames_duplicated", r.study.link_faults.frames_duplicated);
        row.set("frames_reordered", r.study.link_faults.frames_reordered);
        row.set("seconds", r.seconds);
        report::JsonValue trials = report::JsonValue::array();
        for (const serve::replication::FailoverTrial& t : r.study.trials) {
            report::JsonValue tr = report::JsonValue::object();
            tr.set("kind", serve::cut_kind_name(t.kind));
            tr.set("cut_at_op", t.cut_at_op);
            tr.set("cut_op", t.cut_op);
            tr.set("cut_path", t.cut_path);
            tr.set("faulty_transport", t.faulty_transport);
            // Operator-visible torn-tail signal surfaced from recovery.
            tr.set("promote_torn_tail_bytes", t.promote_torn_tail_bytes);
            tr.set("standby_applied_at_kill", t.standby_applied_at_kill);
            tr.set("disk_records_applied", t.disk_records_applied);
            tr.set("disk_records_skipped", t.disk_records_skipped);
            tr.set("digest_match", t.verdict.digest_match);
            tr.set("revenue_match", t.verdict.revenue_match);
            tr.set("admitted_match", t.verdict.admitted_match);
            tr.set("no_double_admits", t.verdict.no_double_admits);
            tr.set("capacity_ok", t.verdict.capacity_ok);
            tr.set("scrub_clean", t.verdict.scrub_clean);
            trials.push(std::move(tr));
        }
        row.set("trials", std::move(trials));
        cells.push(std::move(row));
    }
    doc.set("cells", std::move(cells));
    doc.set("all_gates_passed", all_ok);

    std::ofstream out(out_path);
    out << doc.dump() << '\n';
    std::cout << "wrote " << out_path << '\n';

    if (!all_ok) {
        std::cerr << "FAIL: failover promotion gates failed\n";
        return 1;
    }
    std::cout << "PASS: every promoted standby recovered bit-identically with "
                 "zero lost decisions and zero double-charges\n";
    return 0;
}
