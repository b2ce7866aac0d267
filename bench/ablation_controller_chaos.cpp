// Controller chaos ablation: crash-restart equivalence of the serve
// layer's admission controller under both backup schemes, across a
// sweep of WAL group-commit sizes.
//
// For each scheme and each group_commit size in {1, 4, 32}, one
// paper-environment trace is first served
// uninterrupted (the baseline), then re-served dozens of times with the
// controller killed at a randomized WAL-append point — half the trials
// additionally tear the WAL tail — and restarted from its snapshot +
// WAL. Emits BENCH_controller_chaos.json and exits nonzero when any
// acceptance gate fails:
//
//   * every kill trial recovers to a bit-identical state digest, equal
//     revenue bits, the same admitted set (no double-admits), and zero
//     capacity violations under core::verify_schedule;
//   * reopening the baseline's own checkpoint reproduces its digest;
//   * all group sizes of a scheme agree on the baseline digest — group
//     commit must not change decisions.
//
// Usage: ablation_controller_chaos [output.json]
//   VNFR_BENCH_QUICK=1  shrink the trace and trial counts for smoke/CI
#include <sys/stat.h>

#include <chrono>
#include <iostream>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "report/json.hpp"
#include "serve/chaos_study.hpp"

using namespace vnfr;

namespace {

const char* scheme_name(core::Scheme scheme) {
    return scheme == core::Scheme::kOnsite ? "onsite" : "offsite";
}

/// The group-commit sizes the acceptance gate sweeps: the per-record-
/// fdatasync controller, a small group, and a large one.
constexpr std::size_t kGroupSizes[] = {1, 4, 32};

struct ConfigResult {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::size_t group_commit{1};
    serve::ChaosStudyResult study;
    double seconds{0};
};

std::string config_tag(std::size_t group_commit) {
    return "g" + std::to_string(group_commit);
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_controller_chaos.json");

    const std::size_t requests = bench::quick_mode() ? 100 : 240;
    const std::size_t kills_per_config = bench::quick_mode() ? 4 : 12;
    const std::uint64_t master = bench::scenario_seed("controller_chaos", requests);

    std::cout << "== Controller chaos ablation: kill/restart equivalence ==\n";
    bench::print_thread_note();

    common::Rng rng = common::stream_rng(master, 0);
    const core::Instance instance =
        bench::make_factory(bench::paper_environment(requests))(rng);
    std::cout << "instance: " << instance.requests.size() << " requests, "
              << instance.network.cloudlet_count() << " cloudlets, horizon "
              << instance.horizon << "; " << kills_per_config
              << " kill points per (scheme, group) cell\n\n";

    const std::string work_root = "controller_chaos_state";
    ::mkdir(work_root.c_str(), 0755);  // studies manage their own subdirs

    std::vector<ConfigResult> results;
    bool all_ok = true;
    bool digests_consistent = true;
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        std::uint64_t scheme_digest = 0;
        bool scheme_digest_set = false;
        for (const std::size_t group_commit : kGroupSizes) {
            serve::ChaosStudyConfig cfg;
            cfg.scheme = scheme;
            // Same kill-point stream for every cell of a scheme: the
            // sweep varies the group size, not the crashes.
            cfg.master_seed =
                common::stream_seed(master, 1 + static_cast<std::uint64_t>(scheme));
            cfg.kill_points = kills_per_config;
            cfg.checkpoint_every = 16;
            cfg.queue_capacity = 8;
            cfg.group_commit = group_commit;
            cfg.torn_tails = true;
            cfg.work_dir =
                work_root + "/" + scheme_name(scheme) + "_" + config_tag(group_commit);

            ConfigResult r;
            r.scheme = scheme;
            r.group_commit = group_commit;
            const auto start = std::chrono::steady_clock::now();
            r.study = serve::run_chaos_study(instance, cfg);
            r.seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                    .count();

            std::size_t torn = 0;
            for (const serve::ChaosTrial& t : r.study.trials) {
                if (t.torn_tail_applied) ++torn;
            }
            std::cout << scheme_name(scheme) << " [" << config_tag(group_commit)
                      << "]: baseline revenue " << r.study.baseline_metrics.revenue
                      << " (admitted " << r.study.baseline_metrics.admitted
                      << ", shed " << r.study.baseline_metrics.shed << "), digest "
                      << report::hex_u64(r.study.baseline_digest) << "\n  "
                      << r.study.trials.size() << " kill trials (" << torn
                      << " with torn WAL tails), " << r.study.failed_trials
                      << " failed, reload-ok "
                      << (r.study.baseline_reload_ok ? "yes" : "no") << ", "
                      << report::format_double(r.seconds, 2) << "s\n";
            if (!r.study.ok()) {
                std::cout << "  GATE FAILED for " << scheme_name(scheme) << " ["
                          << config_tag(group_commit) << "]\n";
                all_ok = false;
            }
            if (!scheme_digest_set) {
                scheme_digest = r.study.baseline_digest;
                scheme_digest_set = true;
            } else if (r.study.baseline_digest != scheme_digest) {
                std::cout << "  GATE FAILED: " << scheme_name(scheme) << " ["
                          << config_tag(group_commit)
                          << "] baseline digest differs from the per-record config\n";
                digests_consistent = false;
                all_ok = false;
            }
            results.push_back(std::move(r));
        }
    }
    std::cout << '\n';

    report::JsonValue doc = report::JsonValue::object();
    doc.set("bench", "controller_chaos");
    doc.set("quick", bench::quick_mode());
    doc.set("requests", static_cast<std::uint64_t>(requests));
    doc.set("master_seed", report::hex_u64(master));
    report::JsonValue configs = report::JsonValue::array();
    for (const ConfigResult& r : results) {
        report::JsonValue row = report::JsonValue::object();
        row.set("scheme", scheme_name(r.scheme));
        row.set("group_commit", static_cast<std::uint64_t>(r.group_commit));
        row.set("baseline_digest", report::hex_u64(r.study.baseline_digest));
        row.set("baseline_revenue", r.study.baseline_metrics.revenue);
        row.set("baseline_admitted", r.study.baseline_metrics.admitted);
        row.set("baseline_rejected", r.study.baseline_metrics.rejected);
        row.set("baseline_shed", r.study.baseline_metrics.shed);
        row.set("baseline_shed_revenue", r.study.baseline_metrics.shed_revenue);
        row.set("baseline_reload_ok", r.study.baseline_reload_ok);
        row.set("baseline_capacity_ok", r.study.baseline_capacity_ok);
        row.set("kill_trials", static_cast<std::uint64_t>(r.study.trials.size()));
        row.set("failed_trials", static_cast<std::uint64_t>(r.study.failed_trials));
        row.set("seconds", r.seconds);
        report::JsonValue trials = report::JsonValue::array();
        for (const serve::ChaosTrial& t : r.study.trials) {
            report::JsonValue tr = report::JsonValue::object();
            tr.set("kill_after_records", t.kill_after_records);
            tr.set("mid_batch", t.mid_batch);
            tr.set("torn_tail", t.torn_tail_applied);
            tr.set("truncated_bytes", t.truncated_bytes);
            // What recovery actually observed and dropped on revival —
            // the operator-visible counterpart of the injected tear.
            tr.set("recovered_torn_tail_bytes", t.recovered_torn_tail_bytes);
            tr.set("recovered_torn_tail_records", t.recovered_torn_tail_records);
            tr.set("digest_match", t.digest_match);
            tr.set("revenue_match", t.revenue_match);
            tr.set("admitted_match", t.admitted_match);
            tr.set("no_double_admits", t.no_double_admits);
            tr.set("capacity_ok", t.capacity_ok);
            trials.push(std::move(tr));
        }
        row.set("trials", std::move(trials));
        configs.push(std::move(row));
    }
    doc.set("configs", std::move(configs));
    doc.set("digests_consistent", digests_consistent);
    doc.set("all_gates_passed", all_ok);

    std::ofstream out(out_path);
    out << doc.dump() << '\n';
    std::cout << "wrote " << out_path << '\n';

    if (!all_ok) {
        std::cerr << "FAIL: chaos recovery gates failed\n";
        return 1;
    }
    std::cout << "PASS: all kill trials recovered bit-identically at every "
                 "group-commit size\n";
    return 0;
}
