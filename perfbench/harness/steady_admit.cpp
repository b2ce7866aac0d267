// steady_admit: a closed loop on one thread over the on-site scheme and the
// default ServeConfig. The harness submits one request and pumps it, so the
// measured rate is the rate of durable decisions. The paper environment
// runs over a 600-slot horizon, so admissions never stop and the admitted
// history grows to tens of thousands: checkpoint rotation, which snapshots
// that history every 64 records, does most of the work. Each pass ends by
// restarting over its final data directory, which prices the checkpoint
// policy on the recovery side.
#include <unistd.h>

#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/admission_controller.hpp"
#include "sim/scenarios.hpp"
#include "shared.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = vnfr::core;
namespace serve = vnfr::serve;
namespace sim = vnfr::sim;

namespace {

constexpr std::size_t kRequests = 60000;
constexpr vnfr::TimeSlot kHorizon = 600;
constexpr int kSetupRepeats = 11;
constexpr int kRestartsPerPass = 3;
constexpr std::size_t kSelfCheckRequests = 128;
constexpr std::size_t kDiskPassRequests = 10000;
constexpr core::Scheme kScheme = core::Scheme::kOnsite;
const std::string kDataDir = "mem/steady_admit";

/// Per-call timings of a traced pass.
struct CallTrace {
    std::vector<double> submit_us;
    std::vector<double> pump_us;
    std::vector<double> checkpoint_pump_ms;
    std::uint64_t queue_depth_max{0};
};

struct PassOutcome {
    double loop_s{0};
    std::uint64_t digest{0};
    serve::ServeMetrics metrics;
    StorageCounts storage;
    std::uint64_t checkpoints{0};
};

/// Submits and pumps the first `requests` requests once each through a
/// fresh controller over `cfg`, whose Vfs is `counting`. Appends one
/// submit-to-durable latency per request.
PassOutcome run_pass(RunResult& result, serve::ServeConfig cfg, const CountingVfs& counting,
                     const core::Instance& instance, std::size_t requests,
                     std::vector<double>& latency_us, CallTrace* trace) {
    PassOutcome pass;
    serve::AdmissionController controller(instance, kScheme, std::move(cfg));
    const StorageCounts before = counting.counts();
    const std::uint64_t first_generation = controller.wal_generation();
    std::uint64_t generation = first_generation;
    std::uint64_t bad_pumps = 0;
    const Clock::time_point loop_start = Clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
        const Clock::time_point submitted = Clock::now();
        controller.submit(i, instance.requests[i]);
        Clock::time_point pump_start = submitted;
        if (trace != nullptr) {
            pump_start = Clock::now();
            trace->submit_us.push_back(micros_between(submitted, pump_start));
            trace->queue_depth_max =
                std::max<std::uint64_t>(trace->queue_depth_max, controller.queue_size());
            pump_start = Clock::now();
        }
        const std::vector<serve::ProcessedOutcome> batch = controller.pump(1);
        const Clock::time_point durable = Clock::now();
        latency_us.push_back(micros_between(submitted, durable));
        if (batch.size() != 1 || batch.front().seq != i) ++bad_pumps;
        if (trace != nullptr) {
            trace->pump_us.push_back(micros_between(pump_start, durable));
            const std::uint64_t now_generation = controller.wal_generation();
            if (now_generation != generation) {
                trace->checkpoint_pump_ms.push_back(micros_between(pump_start, durable) /
                                                    1000.0);
                generation = now_generation;
            }
        }
    }
    pass.loop_s = seconds_between(loop_start, Clock::now());
    result.attempted += requests;
    result.check(bad_pumps == 0, "each pump(1) returns the request just submitted");
    pass.digest = controller.state_digest();
    pass.metrics = controller.metrics();
    pass.storage = counting.counts().since(before);
    pass.checkpoints = controller.wal_generation() - first_generation;
    return pass;
}

/// The same request prefix through the unwrapped posix_vfs(), a
/// CountingVfs over it, and the in-memory store must reach one digest:
/// neither the counting wrapper nor the in-memory backend changes what
/// the controller decides or persists.
void storage_self_check(RunResult& result, const core::Instance& instance,
                        const std::string& data_root) {
    namespace fs = std::filesystem;
    const fs::path root = fs::path(data_root) / ("steady_admit-" + std::to_string(::getpid()));
    ++result.attempted;
    result.notes.push_back("storage: timed passes in memory (MemVfs); self-check on " +
                           filesystem_type(data_root));
    const auto drive = [&](serve::ServeConfig cfg) {
        serve::AdmissionController controller(instance, kScheme, std::move(cfg));
        for (std::size_t i = 0; i < kSelfCheckRequests; ++i) {
            controller.submit(i, instance.requests[i]);
            (void)controller.pump(1);
        }
        return controller.state_digest();
    };
    std::error_code ignored;
    try {
        fs::remove_all(root);
        fs::create_directories(root / "posix");
        fs::create_directories(root / "counted");
        serve::ServeConfig plain;
        plain.data_dir = (root / "posix").string();
        const std::uint64_t unwrapped = drive(plain);
        CountingVfs counting(serve::posix_vfs(), false);
        serve::ServeConfig wrapped_cfg;
        wrapped_cfg.data_dir = (root / "counted").string();
        wrapped_cfg.vfs = &counting;
        const std::uint64_t wrapped = drive(wrapped_cfg);
        ServeStore store("mem/self_check");
        const std::uint64_t in_memory = drive(store.config());
        result.check(unwrapped == wrapped && wrapped == in_memory,
                     "posix, counted-posix and in-memory storage reach one digest");
    } catch (const std::exception& e) {
        result.check(false, std::string("storage self-check: ") + e.what());
    }
    fs::remove_all(root, ignored);
}

/// Traced runs: the first kDiskPassRequests requests once more, with the
/// data directory on disk (a fresh directory under `data_root`, removed
/// afterwards) behind a timed CountingVfs over posix_vfs(). The pass must
/// decide and write exactly what an in-memory pass of the same prefix
/// does, so its per-operation times are those of the program's own
/// storage calls. It covers a prefix because on an ext4 virtual disk a
/// snapshot rename or WAL unlink took 20-40 ms, and the whole stream's
/// ~2,800 of them would outlast the run.
StorageCounts disk_pass(RunResult& result, const core::Instance& instance,
                        const std::string& data_root) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(data_root) / ("steady_admit-disk-" + std::to_string(::getpid()));
    StorageCounts counts;
    std::error_code ignored;
    std::vector<double> latency_us;
    try {
        ServeStore store(kDataDir);
        const PassOutcome in_memory = run_pass(result, store.config(), store.counting(), instance,
                                               kDiskPassRequests, latency_us, nullptr);
        fs::remove_all(dir);
        fs::create_directories(dir);
        CountingVfs disk(serve::posix_vfs(), true);
        serve::ServeConfig cfg;
        cfg.data_dir = dir.string();
        cfg.vfs = &disk;
        const PassOutcome pass =
            run_pass(result, cfg, disk, instance, kDiskPassRequests, latency_us, nullptr);
        result.check(pass.digest == in_memory.digest &&
                         pass.storage.same_counts(in_memory.storage),
                     "the disk pass decides and writes what an in-memory pass does");
        counts = pass.storage;
    } catch (const std::exception& e) {
        result.check(false, std::string("disk pass: ") + e.what());
    }
    fs::remove_all(dir, ignored);
    std::string line = "storage: traced disk pass on " + filesystem_type(data_root) + ", " +
                       std::to_string(kDiskPassRequests) + " requests:";
    for (std::size_t i = 0; i < kStorageOpCount; ++i) {
        line += std::string(" ") + storage_op_name(static_cast<StorageOp>(i)) + " " +
                std::to_string(counts.ops[i].count);
    }
    result.notes.push_back(line);
    return counts;
}

}  // namespace

RunResult run_steady_admit(const RunOptions& options) {
    RunResult result;
    core::InstanceConfig environment = sim::paper_environment(kRequests);
    environment.workload.horizon = kHorizon;

    const ServeSetup setup = set_up_serve(environment, kScheme, options.seed, kSetupRepeats);
    const core::Instance& instance = *setup.instance;

    std::vector<std::size_t> order(instance.requests.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const DecideReplay expected =
        replay_decisions(sim::Algorithm::kOnsitePrimalDual, instance, order, false);

    // Figures are medians over passes: a pass hit by a stall elsewhere on
    // the machine moves one sample, not the result.
    std::vector<double> latency_us;
    latency_us.reserve(kRequests);
    std::vector<double> pass_rate;
    std::vector<double> pass_p50;
    std::vector<double> pass_p99;
    std::vector<double> restart_s;
    CallTrace trace;
    std::optional<PassOutcome> first;
    std::uint64_t replayed = 0;
    double loop_s = 0;
    std::uint64_t passes = 0;
    const Clock::time_point measure_start = Clock::now();
    while (passes < 2 || seconds_between(measure_start, Clock::now()) < options.seconds) {
        ServeStore store(kDataDir);
        latency_us.clear();
        const PassOutcome pass = run_pass(result, store.config(), store.counting(), instance,
                                          kRequests, latency_us,
                                          options.trace ? &trace : nullptr);
        loop_s += pass.loop_s;
        ++passes;
        pass_rate.push_back(static_cast<double>(kRequests) / pass.loop_s);
        pass_p50.push_back(percentile(latency_us, 0.50));
        pass_p99.push_back(percentile(latency_us, 0.99));
        result.check(pass.metrics.processed == kRequests && pass.metrics.shed == 0,
                     "every request is decided, none shed");
        result.check(pass.metrics.revenue == expected.revenue &&
                         pass.metrics.admitted == expected.admitted,
                     "controller revenue and admissions equal the decide-only replay");
        if (!first) {
            first = pass;
        } else {
            result.check(pass.digest == first->digest, "every pass ends at one digest");
        }
        const std::vector<double> restarts = time_restarts(
            result, store, instance, kScheme, kRestartsPerPass, pass.digest, &replayed);
        restart_s.insert(restart_s.end(), restarts.begin(), restarts.end());
        if (options.trace && passes == 1) add_snapshot_layers(result, store);
    }
    storage_self_check(result, instance, options.data_root);

    const double requests = static_cast<double>(kRequests);
    const double admit_rate = median(pass_rate);
    const double p50 = median(pass_p50);
    const double p99 = median(pass_p99);
    const double bytes_per_request = static_cast<double>(first->storage.bytes()) / requests;
    const double syncs_per_request = static_cast<double>(first->storage.syncs()) / requests;

    result.e2e("throughput", admit_rate, "1/s");
    result.e2e("latency_p50_us", p50, "us");
    result.e2e("latency_p99_us", p99, "us");
    result.e2e("recovery_s", median(restart_s), "s");
    result.e2e("setup_s", setup.setup_s, "s");

    result.report("admit_rate", admit_rate, "decisions/s");
    result.report("admit_p50_us", p50, "us");
    result.report("admit_p99_us", p99, "us");
    result.report("recovery_s", median(restart_s), "s");
    result.report("storage_bytes_per_request", bytes_per_request, "B");
    result.report("syncs_per_request", syncs_per_request, "count");
    result.report("setup_s", setup.setup_s, "s");
    result.notes.push_back("steady_admit: " + std::to_string(passes) + " passes of " +
                           std::to_string(kRequests) + " requests, " +
                           std::to_string(first->metrics.admitted) + " admitted per pass");

    if (options.trace) {
        double submit_total = 0;
        for (const double us : trace.submit_us) submit_total += us;
        double pump_total = 0;
        for (const double us : trace.pump_us) pump_total += us;
        const double pumps = static_cast<double>(trace.pump_us.size());
        result.layer("serve.pump_us_per_request", pump_total / pumps, "us");
        result.layer("serve.submit_p50_us", percentile(trace.submit_us, 0.50), "us");
        result.layer("serve.submit_p99_us", percentile(trace.submit_us, 0.99), "us");
        result.layer("serve.checkpoints", static_cast<double>(first->checkpoints), "count");
        result.layer("serve.checkpoint_pump_p50_ms", median(trace.checkpoint_pump_ms), "ms");
        result.layer("serve.checkpoint_pump_share",
                     static_cast<double>(trace.checkpoint_pump_ms.size()) / pumps, "ratio");
        result.layer("serve.queue_depth_max", static_cast<double>(trace.queue_depth_max),
                     "count");
        result.layer("serve.sheds", static_cast<double>(first->metrics.shed), "count");
        result.layer("serve.shed_fraction", static_cast<double>(first->metrics.shed) / requests,
                     "ratio");
        result.layer("serve.restart_replayed_records", static_cast<double>(replayed), "count");
        const double record_bytes =
            static_cast<double>(wal_record_bytes(instance, order, expected.decisions));
        result.layer("serve.wal_record_bytes_mean", record_bytes / requests, "B");
        add_storage_layers(result, first->storage,
                           disk_pass(result, instance, options.data_root), requests,
                           record_bytes);
        add_core_layers(result, instance, order, sim::Algorithm::kOnsitePrimalDual);
        result.layer("workload.make_instance_ms", setup.make_instance_ms, "ms");
        result.layer("loadgen.lag_p99_us", 0.0, "us");  // closed loop: nothing is due
        result.layer("loadgen.offered", requests, "count");
        result.layer("loadgen.timed_share", (submit_total + pump_total) / 1e6 / loop_s,
                     "ratio");
        result.layer("loadgen.idle_share", 0.0, "ratio");  // closed loop: never waits
    }
    return result;
}

}  // namespace perfbench
