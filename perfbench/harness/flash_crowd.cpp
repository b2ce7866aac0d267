// flash_crowd: an open loop with two threads over the off-site scheme and
// the default ServeConfig, on the paper's over-subscribed 24-slot
// environment. A precomputed, seeded schedule sends Poisson-timed bursts of
// 300-500 requests, more than the default queue bound of 256, at a fixed
// mean rate of kOfferedRate; this thread submits each request when it is
// due while a second thread pumps. The admitted history stays small, so
// snapshots are cheap: the work is the per-request path (submit and the
// shed heap, the lock handoff between submit and pump, Algorithm 2's
// decide) and the synchronous WAL append of every shed. Latency runs from
// each request's due time, so a stall also counts against the requests
// queued behind it; a slower build shows as a growing backlog, more sheds
// and a higher p99.
#include <atomic>
#include <optional>
#include <string>
#include <thread>
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

/// Mean offered load in requests per second, fixed across machines.
constexpr double kOfferedRate = 50000;
constexpr std::int64_t kBurstMin = 300;
constexpr std::int64_t kBurstMax = 500;
constexpr std::size_t kPumpBatch = 32;
constexpr int kSetupRepeats = 11;
constexpr int kRestarts = 3;
constexpr core::Scheme kScheme = core::Scheme::kOffsite;
const std::string kDataDir = "mem/flash_crowd";

/// Due time of every request, in seconds from the start of the run.
std::vector<double> burst_schedule(std::uint64_t seed, double seconds) {
    vnfr::common::Rng rng = vnfr::common::stream_rng(seed, 1);
    const double burst_rate =
        kOfferedRate / (static_cast<double>(kBurstMin + kBurstMax) / 2.0);
    std::vector<double> due;
    for (double t = rng.exponential(burst_rate); t < seconds;
         t += rng.exponential(burst_rate)) {
        const auto size = static_cast<std::size_t>(rng.uniform_int(kBurstMin, kBurstMax));
        due.insert(due.end(), size, t);
    }
    return due;
}

/// Sleeps, then spins, until `due`.
void wait_until(Clock::time_point due) {
    for (;;) {
        const Clock::time_point now = Clock::now();
        if (now >= due) return;
        if (due - now > std::chrono::microseconds(300)) {
            std::this_thread::sleep_for(due - now - std::chrono::microseconds(200));
        }
    }
}

/// What the pumping thread saw.
struct PumpLog {
    /// due -> durable per seq (sized to the offered count; stays -1 when shed)
    std::vector<double> latency_us;
    std::vector<std::size_t> order;           ///< decided seqs, in decision order
    std::vector<double> pump_us;              ///< non-empty pumps, traced runs only
    std::vector<double> checkpoint_pump_ms;   ///< traced runs only
    double serving_s{0};                      ///< inside pump() calls that decided
    double probe_s{0};                        ///< inside wal_generation(), traced runs only
    double idle_s{0};                         ///< polling: streaks of empty pump() calls
    double wall_s{0};
    std::string error;
};

void pump_until_done(serve::AdmissionController& controller,
                     const std::atomic<bool>& submitted_all,
                     const std::vector<Clock::time_point>& due, bool trace, PumpLog& log) {
    const Clock::time_point started = Clock::now();
    std::uint64_t generation = controller.wal_generation();
    // Start of the current streak of empty pumps: polling, up to the start
    // of the next pump that decides something.
    std::optional<Clock::time_point> polling_since;
    try {
        for (;;) {
            const bool last_round = submitted_all.load(std::memory_order_acquire);
            const Clock::time_point start = Clock::now();
            const std::vector<serve::ProcessedOutcome> batch = controller.pump(kPumpBatch);
            const Clock::time_point durable = Clock::now();
            if (batch.empty()) {
                if (!polling_since) polling_since = start;
                if (last_round) {
                    log.idle_s += seconds_between(*polling_since, durable);
                    break;
                }
                std::this_thread::yield();
                continue;
            }
            if (polling_since) {
                log.idle_s += seconds_between(*polling_since, start);
                polling_since.reset();
            }
            log.serving_s += seconds_between(start, durable);
            for (const serve::ProcessedOutcome& o : batch) {
                log.latency_us[o.seq] = micros_between(due[o.seq], durable);
                log.order.push_back(o.seq);
            }
            if (trace) {
                log.pump_us.push_back(micros_between(start, durable));
                const Clock::time_point probe = Clock::now();
                const std::uint64_t now_generation = controller.wal_generation();
                log.probe_s += seconds_between(probe, Clock::now());
                if (now_generation != generation) {
                    log.checkpoint_pump_ms.push_back(micros_between(start, durable) / 1000.0);
                    generation = now_generation;
                }
            }
        }
    } catch (const std::exception& e) {
        log.error = e.what();
    }
    log.wall_s = seconds_between(started, Clock::now());
}

}  // namespace

RunResult run_flash_crowd(const RunOptions& options) {
    RunResult result;
    const std::vector<double> due_s = burst_schedule(options.seed, options.seconds);
    const std::size_t offered = due_s.size();
    const core::InstanceConfig environment = sim::paper_environment(offered);

    const ServeSetup setup = set_up_serve(environment, kScheme, options.seed, kSetupRepeats);
    const core::Instance& instance = *setup.instance;

    ServeStore store(kDataDir);
    std::optional<serve::AdmissionController> controller;
    controller.emplace(instance, kScheme, store.config());
    const StorageCounts before = store.counts();
    const std::uint64_t first_generation = controller->wal_generation();

    // Submitting is this thread; pumping is a second one.
    std::vector<Clock::time_point> due(offered);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < offered; ++i) {
        due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(due_s[i]));
    }
    std::atomic<bool> submitted_all{false};
    PumpLog pumped;
    pumped.latency_us.assign(offered, -1.0);
    pumped.order.reserve(offered);
    std::vector<double> lag_us;
    lag_us.reserve(offered);
    std::vector<double> submit_us;
    std::uint64_t queue_depth_max = 0;
    double generator_wait_s = 0;   // waiting for the next due time
    double generator_timed_s = 0;  // inside submit() and, traced, queue_size()
    std::string generator_error;
    std::thread pumper([&] {
        pump_until_done(*controller, submitted_all, due, options.trace, pumped);
    });
    const Clock::time_point generator_start = Clock::now();
    try {
        for (std::size_t i = 0; i < offered; ++i) {
            const Clock::time_point waiting = Clock::now();
            wait_until(due[i]);
            const Clock::time_point sent = Clock::now();
            controller->submit(i, instance.requests[i]);
            const Clock::time_point returned = Clock::now();
            lag_us.push_back(micros_between(due[i], sent));
            generator_wait_s += seconds_between(waiting, sent);
            generator_timed_s += seconds_between(sent, returned);
            if (options.trace) {
                submit_us.push_back(micros_between(sent, returned));
                const Clock::time_point probe = Clock::now();
                queue_depth_max =
                    std::max<std::uint64_t>(queue_depth_max, controller->queue_size());
                generator_timed_s += seconds_between(probe, Clock::now());
            }
        }
    } catch (const std::exception& e) {
        generator_error = e.what();
    }
    const double generator_wall_s = seconds_between(generator_start, Clock::now());
    submitted_all.store(true, std::memory_order_release);
    pumper.join();
    result.attempted += offered;

    result.check(generator_error.empty(), "submit raised no error: " + generator_error);
    result.check(pumped.error.empty(), "pump raised no error: " + pumped.error);
    const serve::ServeMetrics metrics = controller->metrics();
    const std::uint64_t processed = pumped.order.size();
    result.check(metrics.processed == processed, "every decided request reached the pumper");
    result.check(processed + metrics.shed == offered, "processed + shed = offered");
    const DecideReplay expected =
        replay_decisions(sim::Algorithm::kOffsitePrimalDual, instance, pumped.order, false);
    result.check(metrics.revenue == expected.revenue && metrics.admitted == expected.admitted,
                 "controller revenue and admissions equal the decide-only replay");
    const std::uint64_t digest = controller->state_digest();
    const StorageCounts storage = store.counts().since(before);
    const std::uint64_t checkpoints = controller->wal_generation() - first_generation;
    controller.reset();
    std::uint64_t replayed = 0;
    (void)time_restarts(result, store, instance, kScheme, kRestarts, digest, &replayed);

    const double offered_d = static_cast<double>(offered);
    // Capacity: decided requests per second spent inside the pumps that
    // decided them. The open loop's own rate is fixed by the schedule.
    const double capacity = static_cast<double>(processed) / pumped.serving_s;
    // Latency percentiles within each burst, and the burst's recovery time
    // (due -> its last decision durable, when the queue is clear of it),
    // then their medians over the run's bursts: the figures of a typical
    // flash crowd. A stall elsewhere on the machine, or two bursts that
    // happen to overlap, moves a few bursts' figures, not the result.
    std::vector<double> burst_p50;
    std::vector<double> burst_p99;
    std::vector<double> burst_drain_s;
    std::vector<double> decided_us;
    std::vector<double> burst;
    for (std::size_t i = 0; i < offered; ++i) {
        if (pumped.latency_us[i] >= 0) {
            burst.push_back(pumped.latency_us[i]);
            decided_us.push_back(pumped.latency_us[i]);
        }
        if ((i + 1 == offered || due_s[i + 1] != due_s[i]) && !burst.empty()) {
            burst_p50.push_back(percentile(burst, 0.50));
            burst_p99.push_back(percentile(burst, 0.99));
            burst_drain_s.push_back(percentile(burst, 1.0) / 1e6);
            burst.clear();
        }
    }
    const double p50 = median(burst_p50);
    const double p99 = median(burst_p99);
    const double shed_fraction = static_cast<double>(metrics.shed) / offered_d;
    result.e2e("throughput", capacity, "1/s");
    result.e2e("latency_p50_us", p50, "us");
    result.e2e("latency_p99_us", p99, "us");
    result.e2e("recovery_s", median(burst_drain_s), "s");
    result.e2e("setup_s", setup.setup_s, "s");

    result.report("admit_p50_us", p50, "us");
    result.report("admit_p99_us", p99, "us");
    result.report("shed_fraction", shed_fraction, "ratio");
    result.report("storage_bytes_per_request", static_cast<double>(storage.bytes()) / offered_d,
                  "B");
    result.report("syncs_per_request", static_cast<double>(storage.syncs()) / offered_d,
                  "count");
    result.report("setup_s", setup.setup_s, "s");
    result.notes.push_back("flash_crowd: offered " + std::to_string(offered) + " at " +
                           std::to_string(static_cast<long>(kOfferedRate)) +
                           "/s, decided " + std::to_string(processed) + ", shed " +
                           std::to_string(metrics.shed) + ", p99 over all decided " +
                           std::to_string(percentile(decided_us, 0.99)) +
                           " us, generator lag p99 " +
                           std::to_string(percentile(lag_us, 0.99)) + " us");

    if (options.trace) {
        double pump_total = 0;
        for (const double us : pumped.pump_us) pump_total += us;
        result.layer("serve.pump_us_per_request", pump_total / static_cast<double>(processed),
                     "us");
        result.layer("serve.submit_p50_us", percentile(submit_us, 0.50), "us");
        result.layer("serve.submit_p99_us", percentile(submit_us, 0.99), "us");
        result.layer("serve.checkpoints", static_cast<double>(checkpoints), "count");
        result.layer("serve.checkpoint_pump_p50_ms", median(pumped.checkpoint_pump_ms), "ms");
        result.layer("serve.checkpoint_pump_share",
                     static_cast<double>(pumped.checkpoint_pump_ms.size()) /
                         static_cast<double>(pumped.pump_us.size()),
                     "ratio");
        result.layer("serve.queue_depth_max", static_cast<double>(queue_depth_max), "count");
        result.layer("serve.sheds", static_cast<double>(metrics.shed), "count");
        result.layer("serve.shed_fraction", shed_fraction, "ratio");
        result.layer("serve.restart_replayed_records", static_cast<double>(replayed), "count");
        const double record_bytes = static_cast<double>(
            wal_record_bytes(instance, pumped.order, expected.decisions));
        result.layer("serve.wal_record_bytes_mean",
                     record_bytes / static_cast<double>(processed), "B");
        add_snapshot_layers(result, store);
        // In memory and untimed: vfs.<op>.busy_ms read 0 here. A disk
        // replay of an open loop would not keep its schedule.
        add_storage_layers(result, storage, storage, offered_d, record_bytes);
        add_core_layers(result, instance, pumped.order, sim::Algorithm::kOffsitePrimalDual);
        result.layer("workload.make_instance_ms", setup.make_instance_ms, "ms");
        result.layer("loadgen.lag_p99_us", percentile(lag_us, 0.99), "us");
        result.layer("loadgen.offered", offered_d, "count");
        // Both threads together: the share of their wall time spent waiting
        // for work (the generator for due times, the pumper polling an
        // empty queue), and the share of the rest spent inside timed calls
        // into the controller (submit, the pumps that decided, the traced
        // probes). What is left is the harness's own bookkeeping.
        const double wall_s = generator_wall_s + pumped.wall_s;
        const double idle_s = generator_wait_s + pumped.idle_s;
        result.layer("loadgen.timed_share",
                     (generator_timed_s + pumped.serving_s + pumped.probe_s) / (wall_s - idle_s),
                     "ratio");
        result.layer("loadgen.idle_share", idle_s / wall_s, "ratio");
    }
    return result;
}

}  // namespace perfbench
