#include "shared.hpp"

#include <string>

#include "common/rng.hpp"
#include "net/topology_zoo.hpp"
#include "serve/snapshot.hpp"
#include "serve/wal.hpp"
#include "vnf/catalog.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace sim = vnfr::sim;
namespace core = vnfr::core;
namespace serve = vnfr::serve;

core::Instance make_workload_instance(const core::InstanceConfig& environment,
                                      std::uint64_t network, vnfr::common::Rng& rng) {
    constexpr std::uint64_t kNetworkSeed = 0x6e6574776f726bULL;
    vnfr::common::Rng fixed = vnfr::common::stream_rng(kNetworkSeed, network);
    core::Instance instance{
        vnfr::edge::MecNetwork(vnfr::net::load_topology(environment.topology)),
        vnfr::vnf::Catalog::paper_default(fixed), environment.workload.horizon, {}};
    instance.network.attach_random_cloudlets(environment.cloudlets, fixed);
    instance.requests = vnfr::workload::generate(environment.workload, instance.catalog, rng);
    const auto nodes = static_cast<std::int64_t>(instance.network.graph().node_count());
    for (vnfr::workload::Request& r : instance.requests) {
        r.source = vnfr::NodeId{rng.uniform_int(0, nodes - 1)};
    }
    instance.validate();
    return instance;
}

DecideReplay replay_decisions(sim::Algorithm algorithm, const core::Instance& instance,
                              const std::vector<std::size_t>& order, bool timed) {
    DecideReplay out;
    const auto scheduler = sim::make_scheduler(algorithm, instance);
    core::ScheduleResult decided;
    decided.decisions.reserve(order.size());
    if (timed) out.decide_ns.reserve(order.size());
    for (const std::size_t index : order) {
        const vnfr::workload::Request& request = instance.requests[index];
        const Clock::time_point start = Clock::now();
        core::Decision decision = scheduler->decide(request);
        if (timed) {
            out.decide_ns.push_back(micros_between(start, Clock::now()) * 1000.0);
        }
        if (decision.admitted) {
            out.revenue += request.payment;
            ++out.admitted;
        }
        decided.decisions.push_back(std::move(decision));
    }
    out.rejections = core::rejection_breakdown(decided);
    out.decisions = std::move(decided.decisions);
    return out;
}

void add_core_layers(RunResult& result, const core::Instance& instance,
                     const std::vector<std::size_t>& order,
                     sim::Algorithm scheme_algorithm) {
    for (const sim::Algorithm algorithm : kOnlineAlgorithms) {
        const DecideReplay replay = replay_decisions(algorithm, instance, order, true);
        result.layer("core.decide_p50_ns." + std::string(sim::algorithm_name(algorithm)),
                     median(replay.decide_ns), "ns");
        if (algorithm != scheme_algorithm) continue;
        result.layer("core.admitted", static_cast<double>(replay.admitted), "count");
        result.layer("core.priced_out", static_cast<double>(replay.rejections.priced_out),
                     "count");
        result.layer("core.no_capacity",
                     static_cast<double>(replay.rejections.no_capacity), "count");
        result.layer("core.infeasible",
                     static_cast<double>(replay.rejections.infeasible_requirement),
                     "count");
    }
}

ServeSetup set_up_serve(const core::InstanceConfig& environment, core::Scheme scheme,
                        std::uint64_t seed, int repeats) {
    ServeSetup setup;
    std::vector<double> setup_s;
    std::vector<double> make_instance_ms;
    for (int r = 0; r < repeats; ++r) {
        setup.instance.reset();
        const Clock::time_point start = Clock::now();
        vnfr::common::Rng rng = vnfr::common::stream_rng(seed, 0);
        setup.instance.emplace(make_workload_instance(environment, 0, rng));
        make_instance_ms.push_back(micros_between(start, Clock::now()) / 1000.0);
        ServeStore store("mem/setup");
        const serve::AdmissionController controller(*setup.instance, scheme, store.config());
        setup_s.push_back(seconds_between(start, Clock::now()));
    }
    setup.setup_s = median(setup_s);
    setup.make_instance_ms = median(make_instance_ms);
    return setup;
}

std::vector<double> time_restarts(RunResult& result, ServeStore& store,
                                  const core::Instance& instance, core::Scheme scheme,
                                  int repeats, std::uint64_t digest,
                                  std::uint64_t* replayed) {
    std::vector<double> seconds;
    for (int r = 0; r < repeats; ++r) {
        ++result.attempted;
        const Clock::time_point start = Clock::now();
        const serve::AdmissionController restarted(instance, scheme, store.config());
        seconds.push_back(seconds_between(start, Clock::now()));
        result.check(restarted.state_digest() == digest,
                     "restart reaches the state digest taken before it");
        if (replayed != nullptr) {
            *replayed = restarted.recovery_stats().wal_records_replayed;
        }
    }
    return seconds;
}

std::uint64_t wal_record_bytes(const core::Instance& instance,
                               const std::vector<std::size_t>& order,
                               const std::vector<core::Decision>& decisions) {
    std::uint64_t bytes = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
        serve::WalRecord rec;
        rec.kind = serve::WalRecordKind::kDecision;
        rec.seq = order[k];
        rec.request = instance.requests[order[k]];
        rec.admitted = decisions[k].admitted;
        rec.reject_reason = decisions[k].reject_reason;
        rec.sites = decisions[k].placement.sites;
        bytes += serve::encode_wal_record(rec).size();
    }
    return bytes;
}

void add_snapshot_layers(RunResult& result, ServeStore& store) {
    constexpr int kRepeats = 5;
    const std::string file = store.mem().read_file(store.snapshot_path());
    std::vector<double> load_ms;
    std::vector<double> encode_ms;
    for (int r = 0; r < kRepeats; ++r) {
        Clock::time_point start = Clock::now();
        const serve::ControllerSnapshot snap =
            serve::load_snapshot(store.mem(), store.snapshot_path());
        load_ms.push_back(micros_between(start, Clock::now()) / 1000.0);
        start = Clock::now();
        const std::string encoded = serve::encode_snapshot(snap);
        encode_ms.push_back(micros_between(start, Clock::now()) / 1000.0);
        result.check(encoded == file, "re-encoding the final snapshot reproduces its file");
    }
    result.layer("serve.snapshot_bytes", static_cast<double>(file.size()), "B");
    result.layer("serve.snapshot_load_ms", median(load_ms), "ms");
    result.layer("serve.snapshot_encode_ms", median(encode_ms), "ms");
}

void add_storage_layers(RunResult& result, const StorageCounts& counts,
                        const StorageCounts& timed, double requests, double record_bytes) {
    for (std::size_t i = 0; i < kStorageOpCount; ++i) {
        const std::string op = storage_op_name(static_cast<StorageOp>(i));
        result.layer("vfs." + op + ".count", static_cast<double>(counts.ops[i].count),
                     "count");
        result.layer("vfs." + op + ".busy_ms",
                     static_cast<double>(timed.ops[i].busy_ns) / 1e6, "ms");
    }
    result.layer("vfs.snapshot_bytes_written", static_cast<double>(counts.snapshot_bytes),
                 "B");
    result.layer("vfs.wal_bytes_written", static_cast<double>(counts.wal_bytes), "B");
    result.layer("vfs.write_amplification",
                 static_cast<double>(counts.bytes()) / record_bytes, "ratio");
    result.layer("vfs.bytes_per_request", static_cast<double>(counts.bytes()) / requests,
                 "B");
    result.layer("vfs.syncs_per_request", static_cast<double>(counts.syncs()) / requests,
                 "count");
}

}  // namespace perfbench
