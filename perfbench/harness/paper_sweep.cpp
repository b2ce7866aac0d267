// paper_sweep: the research user's batch run, on at most four threads and
// without the serve layer. Three timed phases reproduce the costs behind
// the Section VI figures:
//
//   online  - seeded replications of the four online algorithms over the
//             paper environment at n = 800 (Figure 1's saturated end), each
//             one a run_experiment call, so the harness times every one;
//   bound   - the on-site LP-relaxation bound (Figure 1's offline series)
//             of paper-scale instances, which dominates a figure's cost;
//   faults  - run_recovery_replications for every RecoveryPolicy.
//
// It never enters src/serve/: it is the no-change control for serve
// changes, as the serve workloads are for opt and sim changes.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "core/offline.hpp"
#include "core/verify.hpp"
#include "opt/presolve.hpp"
#include "report/json.hpp"
#include "sim/experiment.hpp"
#include "sim/recovery_study.hpp"
#include "sim/scenarios.hpp"
#include "shared.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace common = vnfr::common;
namespace core = vnfr::core;
namespace sim = vnfr::sim;

namespace {

// Work per second of --seconds, sized so the three phases take about
// 35%, 40% and 25% of the run on a 4-core x86 container.
constexpr double kOnlineReplicationsPerSecond = 600;
/// Of those, the replications timed alone on one thread.
constexpr double kAloneReplicationsPerSecond = 200;
constexpr double kLpInstancesPerSecond = 6;
constexpr double kFaultReplicationsPerSecond = 700;
constexpr std::size_t kOnlineRequests = 800;
constexpr std::size_t kLpRequests = 400;
constexpr std::size_t kFaultRequests = 800;
/// Rounds the phases are interleaved in; each round studies its own fault
/// instance.
constexpr std::size_t kRounds = 5;
constexpr int kSetupRepeats = 11;
/// Traced runs replay this many online and fault replications (per policy)
/// and LP solves alone.
constexpr std::size_t kTracedReplications = 16;
constexpr std::size_t kTracedFaultReplications = 64;
constexpr std::size_t kTracedLpSolves = 4;

constexpr sim::RecoveryPolicy kPolicies[] = {
    sim::RecoveryPolicy::kNone, sim::RecoveryPolicy::kLocalRespawn,
    sim::RecoveryPolicy::kRemoteMigrate, sim::RecoveryPolicy::kReadmit};

struct Inputs {
    std::vector<core::Instance> lp;
    std::vector<core::Instance> fault;
    /// The hybrid scheduler's decisions on each fault instance.
    std::vector<std::vector<core::Decision>> fault_decisions;
};

sim::FaultInjectorConfig fault_config() {
    sim::FaultInjectorConfig faults;
    faults.rack_failure_per_slot = 0.005;
    return faults;
}

/// Runs job(0..jobs-1) on `threads` threads; returns each job's seconds.
template <typename Job>
std::vector<double> run_parallel(std::size_t jobs, std::size_t threads, const Job& job,
                                 std::string& error) {
    std::vector<double> seconds(jobs, 0.0);
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    const auto worker = [&] {
        for (std::size_t k = next++; k < jobs; k = next++) {
            const Clock::time_point start = Clock::now();
            try {
                job(k);
            } catch (const std::exception& e) {
                const std::lock_guard<std::mutex> lock(error_mu);
                error = e.what();
            }
            seconds[k] = seconds_between(start, Clock::now());
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();
    return seconds;
}

}  // namespace

RunResult run_paper_sweep(const RunOptions& options) {
    RunResult result;
    const std::size_t threads = options.threads;
    const auto per_round = [&](double per_second, double floor) {
        return static_cast<std::size_t>(
            std::max(floor, per_second * options.seconds / static_cast<double>(kRounds)));
    };
    const std::size_t online_per_round = per_round(kOnlineReplicationsPerSecond, 16);
    const std::size_t alone_per_round = per_round(kAloneReplicationsPerSecond, 8);
    const std::size_t lp_per_round = per_round(kLpInstancesPerSecond, 1);
    const std::size_t fault_runs = per_round(kFaultReplicationsPerSecond, 1);
    const std::size_t online_runs = online_per_round * kRounds;
    const std::size_t lp_runs = lp_per_round * kRounds;
    const std::uint64_t online_seed = common::stream_seed(options.seed, 1);
    const std::uint64_t lp_seed = common::stream_seed(options.seed, 2);
    const std::uint64_t fault_seed = common::stream_seed(options.seed, 3);
    const core::InstanceConfig online_env = sim::paper_environment(kOnlineRequests);
    const core::InstanceConfig lp_env = sim::paper_environment(kLpRequests);

    // Set-up: the bound and fault phases' instances, and the decisions the
    // fault study replays.
    std::vector<double> setup_s;
    std::vector<double> make_instance_ms;
    Inputs in;
    for (int r = 0; r < kSetupRepeats; ++r) {
        in = Inputs{};
        const Clock::time_point start = Clock::now();
        for (std::size_t j = 0; j < lp_runs; ++j) {
            const Clock::time_point made = Clock::now();
            common::Rng rng = common::stream_rng(lp_seed, j);
            in.lp.push_back(make_workload_instance(lp_env, j, rng));
            make_instance_ms.push_back(micros_between(made, Clock::now()) / 1000.0);
        }
        for (std::size_t f = 0; f < kRounds; ++f) {
            common::Rng rng = common::stream_rng(fault_seed, f);
            in.fault.push_back(
                make_workload_instance(sim::paper_environment(kFaultRequests), f, rng));
            const auto hybrid =
                sim::make_scheduler(sim::Algorithm::kHybridPrimalDual, in.fault.back());
            in.fault_decisions.push_back(core::run_online(in.fault.back(), *hybrid).decisions);
        }
        setup_s.push_back(seconds_between(start, Clock::now()));
    }

    const sim::InstanceFactory online_factory = sim::make_config_factory(online_env);
    const auto online_config = [&](std::size_t k) {
        sim::ExperimentConfig cfg;
        cfg.algorithms.assign(std::begin(kOnlineAlgorithms), std::end(kOnlineAlgorithms));
        cfg.seeds = 1;
        cfg.base_seed = common::stream_seed(online_seed, k);
        cfg.threads = 1;
        return cfg;
    };
    core::OfflineConfig offline;
    offline.run_ilp = false;
    std::vector<sim::ExperimentOutcome> online(online_runs);
    std::vector<core::OfflineResult> bounds(lp_runs);
    std::vector<sim::RecoveryStudyOutcome> studies;
    std::string error;

    // The phases run interleaved, one slice of each per round, and each
    // figure is a median over rounds: a stall elsewhere on the machine
    // lands in one round, not on one whole phase.
    std::vector<double> alone_us;
    std::vector<double> round_p50_us;
    std::vector<double> round_lp_rate;
    std::vector<double> round_fault_s;
    double online_s = 0;
    double pool_s = 0;
    double pool_busy_s = 0;
    double bound_s = 0;
    double fault_s = 0;
    const auto replicate = [&](std::size_t k) {
        online[k] = sim::run_experiment(online_factory, online_config(k));
    };
    const Clock::time_point measure_start = Clock::now();
    for (std::size_t round = 0; round < kRounds; ++round) {
        // Online replications, each one timed. The round's first ones run
        // alone on this thread and give the latency figures: on a pool, a
        // p50 over replications split between fast and slow cores jumps
        // with the threads' placement. The rest run on the pool.
        const std::size_t first = round * online_per_round;
        const Clock::time_point online_start = Clock::now();
        const std::vector<double> alone = run_parallel(
            alone_per_round, 1, [&](std::size_t i) { replicate(first + i); }, error);
        const Clock::time_point pool_start = Clock::now();
        const std::vector<double> pooled = run_parallel(
            online_per_round - alone_per_round, threads,
            [&](std::size_t i) { replicate(first + alone_per_round + i); }, error);
        const Clock::time_point online_end = Clock::now();
        std::vector<double> round_us;
        for (const double s : alone) round_us.push_back(s * 1e6);
        round_p50_us.push_back(percentile(round_us, 0.50));
        alone_us.insert(alone_us.end(), round_us.begin(), round_us.end());
        for (const double s : pooled) pool_busy_s += s;
        pool_s += seconds_between(pool_start, online_end);

        // LP-relaxation bounds.
        run_parallel(
            lp_per_round, threads,
            [&](std::size_t i) {
                const std::size_t j = round * lp_per_round + i;
                bounds[j] = core::solve_offline(in.lp[j], core::Scheme::kOnsite, offline);
            },
            error);
        const Clock::time_point bound_end = Clock::now();
        round_lp_rate.push_back(static_cast<double>(lp_per_round) /
                                seconds_between(online_end, bound_end));

        // The fault-recovery study of this round's instance, every policy.
        for (const sim::RecoveryPolicy policy : kPolicies) {
            sim::RecoveryStudyConfig cfg;
            cfg.faults = fault_config();
            cfg.recovery.policy = policy;
            cfg.replications = fault_runs;
            cfg.master_seed = common::stream_seed(fault_seed, round);
            cfg.threads = threads;
            studies.push_back(sim::run_recovery_replications(
                in.fault[round], in.fault_decisions[round], cfg));
        }
        const Clock::time_point fault_end = Clock::now();
        round_fault_s.push_back(seconds_between(bound_end, fault_end));

        online_s += seconds_between(online_start, online_end);
        bound_s += seconds_between(online_end, bound_end);
        fault_s += seconds_between(bound_end, fault_end);
    }
    const double measure_s = seconds_between(measure_start, Clock::now());
    result.attempted += online_runs + lp_runs + kRounds * std::size(kPolicies) * fault_runs;

    // Output checks and the phases' checksums.
    result.check(error.empty(), "no phase raised an error: " + error);
    common::Fnv1a online_sum;
    for (const sim::ExperimentOutcome& o : online) {
        result.check(o.per_algorithm.size() == std::size(kOnlineAlgorithms),
                     "every replication reports the four online algorithms");
        online_sum.mix(sim::metrics_checksum(o));
    }
    common::Fnv1a bound_sum;
    for (std::size_t j = 0; j < lp_runs; ++j) {
        result.check(bounds[j].lp_optimal, "every LP relaxation solves to optimality");
        bound_sum.mix(bounds[j].lp_bound);
        for (const sim::Algorithm a :
             {sim::Algorithm::kOnsitePrimalDual, sim::Algorithm::kOnsiteGreedy}) {
            const auto scheduler = sim::make_scheduler(a, in.lp[j]);
            const core::ScheduleResult run = core::run_online(in.lp[j], *scheduler);
            result.check(core::verify_schedule(in.lp[j], run.decisions).ok(),
                         "online schedules pass verify_schedule");
            result.check(run.revenue <= bounds[j].lp_bound * (1 + 1e-9) + 1e-9,
                         "online revenue <= the instance's LP bound");
        }
    }
    for (std::size_t f = 0; f < kRounds; ++f) {
        result.check(core::verify_schedule(in.fault[f], in.fault_decisions[f]).ok(),
                     "the fault study's schedules pass verify_schedule");
    }
    common::Fnv1a fault_sum;
    for (const sim::RecoveryStudyOutcome& s : studies) {
        fault_sum.mix(sim::recovery_metrics_checksum(s));
    }
    result.notes.push_back("paper_sweep: online " + std::to_string(online_runs) +
                           " replications, checksum " + vnfr::report::hex_u64(online_sum.value()));
    result.notes.push_back("paper_sweep: bound " + std::to_string(lp_runs) +
                           " LP relaxations, checksum " + vnfr::report::hex_u64(bound_sum.value()));
    result.notes.push_back("paper_sweep: faults " + std::to_string(kRounds) +
                           " instances x " + std::to_string(std::size(kPolicies)) +
                           " policies x " + std::to_string(fault_runs) +
                           " replications, checksum " + vnfr::report::hex_u64(fault_sum.value()));

    result.e2e("throughput", median(round_lp_rate), "1/s");
    // p50 per round, then the median over rounds; the p99 over all the
    // run's alone replications, so that it has at least ten samples above
    // it.
    result.e2e("latency_p50_us", median(round_p50_us), "us");
    result.e2e("latency_p99_us", percentile(alone_us, 0.99), "us");
    result.e2e("recovery_s", median(round_fault_s), "s");
    result.e2e("setup_s", median(setup_s), "s");

    result.report("online_sweep_s", online_s, "s");
    result.report("lp_bound_s", bound_s, "s");
    result.report("fault_study_s", fault_s, "s");
    result.report("setup_s", median(setup_s), "s");

    if (options.trace) {
        // Single replications alone, as run_experiment runs replication 0
        // of each call; they must reproduce the timed phase's revenues.
        std::vector<double> alone_ms;
        for (std::size_t k = 0; k < std::min(kTracedReplications, online_runs); ++k) {
            const Clock::time_point start = Clock::now();
            common::Rng rng = common::stream_rng(online_config(k).base_seed, 0);
            const core::Instance instance = online_factory(rng);
            for (std::size_t a = 0; a < std::size(kOnlineAlgorithms); ++a) {
                const auto scheduler = sim::make_scheduler(kOnlineAlgorithms[a], instance);
                const core::ScheduleResult run = core::run_online(instance, *scheduler);
                result.check(run.revenue == online[k].per_algorithm[a].revenue.mean(),
                             "a replication replayed alone reproduces its revenue");
            }
            alone_ms.push_back(micros_between(start, Clock::now()) / 1000.0);
            if (k == 0) {
                std::vector<std::size_t> order(instance.requests.size());
                std::iota(order.begin(), order.end(), std::size_t{0});
                add_core_layers(result, instance, order, sim::Algorithm::kOnsitePrimalDual);
            }
        }
        result.layer("sim.online_sweep_s", online_s, "s");
        result.layer("sim.replication_p50_ms", median(alone_ms), "ms");
        result.layer("sim.replication_max_ms", *std::max_element(alone_ms.begin(), alone_ms.end()),
                     "ms");
        result.layer("sim.pool_utilization",
                     pool_busy_s / (static_cast<double>(threads) * pool_s), "ratio");

        std::vector<double> fault_ms;
        for (const sim::RecoveryPolicy policy : kPolicies) {
            sim::RecoveryConfig recovery;
            recovery.policy = policy;
            for (std::size_t k = 0; k < std::min(kTracedFaultReplications, fault_runs); ++k) {
                const Clock::time_point start = Clock::now();
                const sim::FaultSchedule schedule = sim::generate_fault_schedule(
                    in.fault[0], in.fault_decisions[0], fault_config(),
                    common::stream_seed(common::stream_seed(fault_seed, 0), k));
                (void)sim::run_recovery_study(in.fault[0], in.fault_decisions[0], schedule,
                                              recovery);
                fault_ms.push_back(micros_between(start, Clock::now()) / 1000.0);
            }
        }
        result.layer("sim.fault_study_s", fault_s, "s");
        result.layer("sim.fault_replication_p50_ms", median(fault_ms), "ms");

        // The bound phase's path, split open: model build, presolve, and
        // the simplex, whose pivot count is exact.
        std::vector<double> solve_ms;
        double iterations = 0;
        for (std::size_t j = 0; j < std::min(kTracedLpSolves, lp_runs); ++j) {
            const Clock::time_point start = Clock::now();
            const core::OfflineModel model = core::build_onsite_model(in.lp[j]);
            const vnfr::opt::PresolveResult pre = vnfr::opt::presolve(model.lp);
            const vnfr::opt::LpSolution lp = vnfr::opt::solve_lp(pre.reduced, offline.lp);
            solve_ms.push_back(micros_between(start, Clock::now()) / 1000.0);
            iterations += static_cast<double>(lp.iterations);
            result.check(lp.objective + pre.objective_offset == bounds[j].lp_bound,
                         "the split LP path reproduces solve_offline's bound");
        }
        result.layer("opt.lp_bound_s", bound_s, "s");
        result.layer("opt.lp_solve_ms", mean(solve_ms), "ms");
        result.layer("opt.simplex_iterations", iterations, "count");
        result.layer("workload.make_instance_ms", median(make_instance_ms), "ms");
        result.layer("loadgen.lag_p99_us", 0.0, "us");
        result.layer("loadgen.offered", static_cast<double>(result.attempted), "count");
        result.layer("loadgen.timed_share", (online_s + bound_s + fault_s) / measure_s,
                     "ratio");
        result.layer("loadgen.idle_share", 0.0, "ratio");  // batch: never waits for work
    }
    return result;
}

}  // namespace perfbench
