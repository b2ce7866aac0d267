// Microbenchmarks: per-request decision latency of the online schedulers
// as the cloudlet count grows (an online admission controller sits on the
// request path, so decide() cost is the deployment-relevant number),
// replication throughput of the parallel experiment engine vs thread
// count, one request-stream generation, one fault replication of the
// recovery study per policy, one paper-scale on-site LP relaxation
// (presolve and simplex), and the serve layer's per-byte checkpoint costs
// (CRC-32, snapshot encode and decode, admitted-ledger parse) and
// per-request admission cost.
#include <benchmark/benchmark.h>

#include <string>

#include "core/greedy.hpp"
#include "core/hybrid_primal_dual.hpp"
#include "core/instance.hpp"
#include "core/offline.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "net/generators.hpp"
#include "opt/presolve.hpp"
#include "opt/simplex.hpp"
#include "serve/admission_controller.hpp"
#include "serve/faults/faulty_vfs.hpp"
#include "serve/ledger.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "sim/experiment.hpp"
#include "sim/recovery_engine.hpp"
#include "sim/recovery_faults.hpp"
#include "sim/scenarios.hpp"
#include "vnf/catalog.hpp"
#include "workload/generator.hpp"

namespace {

using namespace vnfr;

core::Instance make_bench_instance(std::size_t cloudlets, std::size_t requests) {
    // Counter-based stream seeding: the instance is a pure function of
    // (master, cloudlets) — identical across runs and thread settings.
    common::Rng rng = common::stream_rng(0x9e7f'5c4d, cloudlets);
    net::Graph g = net::erdos_renyi(cloudlets + 5, 0.3, rng);
    core::Instance inst{edge::MecNetwork(std::move(g)), vnf::Catalog::paper_default(rng), 60,
                        {}};
    edge::CloudletAttachment attach;
    attach.count = cloudlets;
    attach.capacity_min = 1e7;  // effectively infinite: isolate pricing cost
    attach.capacity_max = 2e7;
    inst.network.attach_random_cloudlets(attach, rng);
    workload::GeneratorConfig wl;
    wl.horizon = 60;
    wl.count = requests;
    wl.duration_max = 12;
    inst.requests = workload::generate(wl, inst.catalog, rng);
    inst.validate();
    return inst;
}

void run_decide_benchmark(benchmark::State& state, sim::Algorithm algorithm) {
    const auto cloudlets = static_cast<std::size_t>(state.range(0));
    const core::Instance inst = make_bench_instance(cloudlets, 4096);
    auto scheduler = sim::make_scheduler(algorithm, inst);
    std::size_t next = 0;
    for (auto _ : state) {
        if (next == inst.requests.size()) {
            // Fresh scheduler once the request stream is exhausted, outside
            // the timed region.
            state.PauseTiming();
            scheduler = sim::make_scheduler(algorithm, inst);
            next = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(scheduler->decide(inst.requests[next++]));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_OnsitePrimalDualDecide(benchmark::State& state) {
    run_decide_benchmark(state, sim::Algorithm::kOnsitePrimalDual);
}
void BM_OnsiteGreedyDecide(benchmark::State& state) {
    run_decide_benchmark(state, sim::Algorithm::kOnsiteGreedy);
}
void BM_OffsitePrimalDualDecide(benchmark::State& state) {
    run_decide_benchmark(state, sim::Algorithm::kOffsitePrimalDual);
}
void BM_OffsiteGreedyDecide(benchmark::State& state) {
    run_decide_benchmark(state, sim::Algorithm::kOffsiteGreedy);
}

BENCHMARK(BM_OnsitePrimalDualDecide)->Arg(5)->Arg(10)->Arg(20)->Arg(40);
BENCHMARK(BM_OnsiteGreedyDecide)->Arg(5)->Arg(10)->Arg(20)->Arg(40);
BENCHMARK(BM_OffsitePrimalDualDecide)->Arg(5)->Arg(10)->Arg(20)->Arg(40);
BENCHMARK(BM_OffsiteGreedyDecide)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

/// Whole replications per second through the parallel experiment engine at
/// state.range(0) threads — the macro counterpart of the decide() micros.
void BM_ParallelExperimentReplications(benchmark::State& state) {
    const auto threads = static_cast<std::size_t>(state.range(0));
    sim::ExperimentConfig cfg;
    cfg.algorithms = {sim::Algorithm::kOnsitePrimalDual, sim::Algorithm::kOnsiteGreedy};
    cfg.seeds = 8;
    cfg.base_seed = common::stream_seed(0x9e7f'5c4d, 1);
    cfg.threads = threads;
    const sim::InstanceFactory factory =
        sim::make_config_factory(sim::golden_environment(120));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::run_experiment(factory, cfg));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cfg.seeds));
}

BENCHMARK(BM_ParallelExperimentReplications)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// One fault replication of the recovery study — RecoveryReplay::run —
/// on the paper environment at n = 800 with the hybrid's decisions and
/// rack failures on (the paper_sweep benchmark's fault phase). The replay
/// base and 16 fault schedules are built untimed; iterations cycle through
/// the schedules.
void BM_RecoveryReplication(benchmark::State& state, sim::RecoveryPolicy policy) {
    common::Rng rng = common::stream_rng(0x9e7f'5c4d, 0xfa17);
    const core::Instance inst = core::make_instance(sim::paper_environment(800), rng);
    core::HybridPrimalDual scheduler(inst);
    const std::vector<core::Decision> decisions = core::run_online(inst, scheduler).decisions;
    sim::FaultInjectorConfig faults;
    faults.rack_failure_per_slot = 0.005;
    std::vector<sim::FaultSchedule> schedules;
    for (std::uint64_t k = 0; k < 16; ++k) {
        schedules.push_back(sim::generate_fault_schedule(
            inst, decisions, faults, common::stream_seed(0x9e7f'5c4d, k)));
    }
    sim::RecoveryConfig recovery;
    recovery.policy = policy;
    const sim::RecoveryReplay replay(inst, decisions, recovery);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(replay.run(schedules[next]));
        next = (next + 1) % schedules.size();
    }
}

BENCHMARK_CAPTURE(BM_RecoveryReplication, none, sim::RecoveryPolicy::kNone)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RecoveryReplication, local_respawn, sim::RecoveryPolicy::kLocalRespawn)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RecoveryReplication, remote_migrate, sim::RecoveryPolicy::kRemoteMigrate)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RecoveryReplication, readmit, sim::RecoveryPolicy::kReadmit)
    ->Unit(benchmark::kMicrosecond);

/// One workload::generate call on the paper environment at state.range(0)
/// requests: 400 is the paper_sweep benchmark's bound-phase instance and
/// 480,000 about flash_crowd's 10 s stream. Each iteration draws from its
/// own Rng stream, as replications do: redrawing one stream would let the
/// branch predictor learn the ordering pass's data.
void BM_GenerateRequests(benchmark::State& state) {
    const auto count = static_cast<std::size_t>(state.range(0));
    const workload::GeneratorConfig config = sim::paper_environment(count).workload;
    common::Rng catalog_rng = common::stream_rng(0x9e7f'5c4d, 0x6e6);
    const vnf::Catalog catalog = vnf::Catalog::paper_default(catalog_rng);
    std::uint64_t stream = 0;
    for (auto _ : state) {
        common::Rng rng = common::stream_rng(0x9e7f'5c4d, stream++);
        benchmark::DoNotOptimize(workload::generate(config, catalog, rng));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(count));
}

BENCHMARK(BM_GenerateRequests)->Arg(400)->Arg(480000)->Unit(benchmark::kMicrosecond);

/// One paper-scale on-site LP relaxation through presolve and solve_lp:
/// the paper environment at n = 400, the instance of PaperScaleLp seed 1
/// (592 rows and 3,037 columns after presolve, the shape of each LP of
/// the paper_sweep benchmark's bound phase). The model is built untimed;
/// `pivots` is the simplex's exact pivot count per solve.
void BM_OnsiteLpBound(benchmark::State& state) {
    common::Rng rng(1);
    const core::Instance inst = core::make_instance(sim::paper_environment(400), rng);
    const core::OfflineModel model = core::build_onsite_model(inst);
    std::size_t pivots = 0;
    for (auto _ : state) {
        const opt::PresolveResult pre = opt::presolve(model.lp);
        const opt::LpSolution sol = opt::solve_lp(pre.reduced);
        if (sol.status != opt::SolveStatus::kOptimal) {
            state.SkipWithError("the on-site LP did not solve to optimality");
            break;
        }
        pivots = sol.iterations;
        benchmark::DoNotOptimize(sol.objective);
    }
    state.counters["pivots"] = static_cast<double>(pivots);
}

BENCHMARK(BM_OnsiteLpBound)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- serve
// The durable admission controller at the shape of the steady_admit
// benchmark workload: 8 cloudlets x 600 slots, i.e. a ~77 KB snapshot, and
// a ~9.5k-record admitted ledger of ~420 KB.

constexpr std::size_t kServeCloudlets = 8;
constexpr std::size_t kServeSlots = 600;
constexpr std::size_t kServeAdmitted = 9500;
constexpr std::size_t kServeRequests = 60000;

/// Seconds per byte, which the console prints with an SI prefix (e.g.
/// 1.1n = 1.1 ns/B).
benchmark::Counter per_byte(std::size_t bytes) {
    return benchmark::Counter(static_cast<double>(bytes),
                              benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}

/// The admitted ledger of the steady_admit shape, as records.
std::vector<serve::AdmittedRecord> make_bench_admitted() {
    common::Rng rng = common::stream_rng(0x9e7f'5c4d, 0x1ed6);
    std::vector<serve::AdmittedRecord> admitted;
    for (std::size_t i = 0; i < kServeAdmitted; ++i) {
        serve::AdmittedRecord rec;
        rec.seq = 6 * i;
        rec.request_id = static_cast<std::int64_t>(6 * i);
        rec.payment = rng.uniform(1.0, 50.0);
        rec.sites = {{rng.uniform_int(0, kServeCloudlets - 1), rng.uniform_int(1, 3)}};
        admitted.push_back(std::move(rec));
    }
    return admitted;
}

/// The ledger file image of make_bench_admitted().
std::string make_bench_ledger() {
    std::string bytes = serve::encode_ledger_header(0);
    for (const serve::AdmittedRecord& rec : make_bench_admitted()) {
        bytes += serve::encode_ledger_record(rec);
    }
    return bytes;
}

serve::ControllerSnapshot make_bench_snapshot() {
    common::Rng rng = common::stream_rng(0x9e7f'5c4d, 0x5e7e);
    serve::ControllerSnapshot snap;
    snap.cloudlets = kServeCloudlets;
    snap.horizon = kServeSlots;
    snap.wal_seq = 937;
    snap.metrics.processed = kServeRequests;
    snap.metrics.admitted = kServeAdmitted;
    snap.metrics.rejected = kServeRequests - kServeAdmitted;
    snap.lambda.assign(kServeCloudlets, std::vector<double>(kServeSlots));
    for (auto& row : snap.lambda) {
        for (double& v : row) v = rng.uniform(0.0, 5.0);
    }
    snap.usage.resize(kServeCloudlets * kServeSlots);
    for (double& v : snap.usage) v = rng.uniform(0.0, 60.0);
    snap.covered_watermark = kServeRequests;
    for (const serve::AdmittedRecord& rec : make_bench_admitted()) {
        snap.metrics.revenue += rec.payment;
    }
    snap.ledger_bytes = make_bench_ledger().size();
    return snap;
}

void BM_Crc32(benchmark::State& state) {
    const auto bytes = static_cast<std::size_t>(state.range(0));
    common::Rng rng = common::stream_rng(0x9e7f'5c4d, bytes);
    std::string data(bytes, '\0');
    for (char& c : data) c = static_cast<char>(rng.uniform_int(0, 255));
    for (auto _ : state) {
        benchmark::DoNotOptimize(serve::crc32(data));
    }
    state.counters["s_per_byte"] = per_byte(bytes);
}

BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(512 * 1024);

void BM_EncodeSnapshot(benchmark::State& state) {
    const serve::ControllerSnapshot snap = make_bench_snapshot();
    const std::size_t bytes = serve::encode_snapshot(snap).size();
    for (auto _ : state) {
        benchmark::DoNotOptimize(serve::encode_snapshot(snap));
    }
    state.counters["s_per_byte"] = per_byte(bytes);
}

BENCHMARK(BM_EncodeSnapshot)->Unit(benchmark::kMicrosecond);

void BM_DecodeSnapshot(benchmark::State& state) {
    const std::string bytes = serve::encode_snapshot(make_bench_snapshot());
    for (auto _ : state) {
        benchmark::DoNotOptimize(serve::decode_snapshot(bytes, "bench"));
    }
    state.counters["s_per_byte"] = per_byte(bytes.size());
}

BENCHMARK(BM_DecodeSnapshot)->Unit(benchmark::kMicrosecond);

/// What a state digest, an admitted list or a scrub pays for the admitted
/// history (a restart no longer does): a strict parse of the whole ledger.
void BM_DecodeLedger(benchmark::State& state) {
    const std::string bytes = make_bench_ledger();
    for (auto _ : state) {
        benchmark::DoNotOptimize(serve::parse_ledger_bytes(bytes, "bench", kServeCloudlets));
    }
    state.counters["s_per_byte"] = per_byte(bytes.size());
}

BENCHMARK(BM_DecodeLedger)->Unit(benchmark::kMicrosecond);

/// One admission request end to end — submit, then pump(1): decide, WAL
/// append and fdatasync, apply, and now and then a checkpoint rotation (the
/// default byte trigger) — over the in-memory FaultyVfs at the default
/// ServeConfig. The first
/// 50k requests of a 60k-request stream are decided untimed, so the timed
/// requests run against an admitted ledger of ~9.5k records and up
/// (`ledger_records` is its size when timing starts).
void BM_PumpOne(benchmark::State& state) {
    core::InstanceConfig environment = sim::paper_environment(kServeRequests);
    environment.workload.horizon = static_cast<TimeSlot>(kServeSlots);
    common::Rng rng = common::stream_rng(0x9e7f'5c4d, kServeRequests);
    const core::Instance inst = core::make_instance(environment, rng);
    serve::FaultyVfs vfs;
    serve::ServeConfig cfg;
    cfg.data_dir = "/bench";
    cfg.vfs = &vfs;
    serve::AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    std::size_t next = 0;
    const auto admit = [&] {
        controller.submit(next, inst.requests[next]);
        benchmark::DoNotOptimize(controller.pump(1));
        ++next;
    };
    while (next < kServeRequests - 10000) admit();
    state.counters["ledger_records"] = static_cast<double>(controller.metrics().admitted);
    for (auto _ : state) admit();
}

BENCHMARK(BM_PumpOne)->Iterations(10000)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
