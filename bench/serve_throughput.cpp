// Serve-layer throughput bench: admissions/sec of the crash-safe
// admission controller across pump batch sizes.
//
// One sweep over a paper-environment trace: a single thread submits the
// whole trace to the bare controller, then drains it with pump(batch)
// for batch {1, 4, 32}. One pump is one WAL commit group, so batch 1 is
// a per-record write+fdatasync and larger batches amortize ONE fdatasync
// over the batch. This isolates the durability cost. Each configuration
// times only its submit and pump loop; constructing the controller
// (creating the generation-0 WAL) is outside the timed span.
//
// Emits BENCH_serve_throughput.json and exits nonzero when a gate fails:
//
//   * amortization gate: admissions/sec at batch 32 must be >= 5x the
//     per-record-fdatasync baseline (batch 1);
//   * equivalence gate: every batch size ends at the SAME state digest
//     (batching must not change decisions).
//
// tools/check_bench_regression.py compares the emitted numbers against
// bench/baselines/serve_throughput_baseline.json in CI.
//
// Usage: serve_throughput [output.json]
//   VNFR_BENCH_QUICK=1  shrink the trace for smoke/CI
#include <sys/stat.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "report/json.hpp"
#include "serve/admission_controller.hpp"

using namespace vnfr;

namespace {

std::string fresh_dir(const std::string& root, const std::string& name) {
    const std::filesystem::path dir = std::filesystem::path(root) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

double seconds_since(const std::chrono::steady_clock::time_point& start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

struct BatchRun {
    std::size_t batch{1};
    double seconds{0};
    double admissions_per_sec{0};
    std::uint64_t digest{0};
};

/// Single-threaded bare-controller drive: submit everything, then pump
/// `batch` at a time until the queue is empty. With a queue bound of n
/// nothing sheds, so every request is decided and WAL-logged — the
/// measured rate is the durable-admission rate.
BatchRun run_batch(const core::Instance& instance, std::size_t batch,
                   const std::string& dir) {
    serve::ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = 1024;
    cfg.queue_capacity = instance.requests.size();
    serve::AdmissionController controller(instance, core::Scheme::kOnsite, cfg);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        controller.submit(i, instance.requests[i]);
    }
    while (controller.queue_size() > 0) (void)controller.pump(batch);
    BatchRun r;
    r.batch = batch;
    r.seconds = seconds_since(start);
    r.admissions_per_sec =
        static_cast<double>(instance.requests.size()) / r.seconds;
    r.digest = controller.state_digest();
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_serve_throughput.json");

    const std::size_t requests = bench::quick_mode() ? 1500 : 8000;
    const std::uint64_t master = bench::scenario_seed("serve_throughput", requests);

    std::cout << "== Serve throughput: pump batch (one WAL commit group) ==\n";
    bench::print_thread_note();

    common::Rng rng = common::stream_rng(master, 0);
    const core::Instance instance =
        bench::make_factory(bench::paper_environment(requests))(rng);
    std::cout << "instance: " << instance.requests.size() << " requests, "
              << instance.network.cloudlet_count() << " cloudlets, horizon "
              << instance.horizon << "\n\n";

    const std::string work_root = "serve_throughput_state";
    ::mkdir(work_root.c_str(), 0755);

    // --- batch sweep: the durability amortization curve -------------------
    std::vector<BatchRun> batch_runs;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
        BatchRun r = run_batch(instance, batch,
                               fresh_dir(work_root, "batch_" + std::to_string(batch)));
        std::cout << "pump batch " << batch << ": "
                  << report::format_double(r.admissions_per_sec, 0)
                  << " admissions/s (" << report::format_double(r.seconds, 3)
                  << "s), digest " << report::hex_u64(r.digest) << "\n";
        batch_runs.push_back(r);
    }
    const double per_record_rate = batch_runs.front().admissions_per_sec;
    const double group32_rate = batch_runs.back().admissions_per_sec;
    const double speedup = group32_rate / per_record_rate;
    std::cout << "group-commit speedup (32 vs per-record fdatasync): "
              << report::format_double(speedup, 1) << "x\n\n";

    // --- gates ------------------------------------------------------------
    bool digests_match = true;
    for (const BatchRun& r : batch_runs) {
        digests_match = digests_match && r.digest == batch_runs.front().digest;
    }
    const double kSpeedupGate = 5.0;
    const bool speedup_ok = speedup >= kSpeedupGate;
    const bool all_ok = digests_match && speedup_ok;

    report::JsonValue doc = report::JsonValue::object();
    doc.set("bench", "serve_throughput");
    doc.set("quick", bench::quick_mode());
    doc.set("requests", static_cast<std::uint64_t>(requests));
    doc.set("master_seed", report::hex_u64(master));
    report::JsonValue groups = report::JsonValue::array();
    for (const BatchRun& r : batch_runs) {
        report::JsonValue row = report::JsonValue::object();
        row.set("batch", static_cast<std::uint64_t>(r.batch));
        row.set("seconds", r.seconds);
        row.set("admissions_per_sec", r.admissions_per_sec);
        row.set("digest", report::hex_u64(r.digest));
        groups.push(std::move(row));
    }
    doc.set("group_sweep", std::move(groups));
    doc.set("per_record_admissions_per_sec", per_record_rate);
    doc.set("group32_admissions_per_sec", group32_rate);
    doc.set("group_commit_speedup", speedup);
    doc.set("digests_match", digests_match);
    doc.set("speedup_gate", kSpeedupGate);
    doc.set("speedup_gate_passed", speedup_ok);
    doc.set("all_gates_passed", all_ok);

    std::ofstream out(out_path);
    out << doc.dump() << '\n';
    std::cout << "wrote " << out_path << '\n';

    if (!all_ok) {
        if (!speedup_ok) {
            std::cerr << "FAIL: group-commit speedup " << speedup << " < "
                      << kSpeedupGate << "x\n";
        }
        if (!digests_match) {
            std::cerr << "FAIL: configurations disagree on the final state digest\n";
        }
        return 1;
    }
    std::cout << "PASS: " << report::format_double(speedup, 1)
              << "x over per-record fdatasync, all digests identical\n";
    return 0;
}
