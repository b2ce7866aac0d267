// Pieces the workloads share: the decide-only replay that cross-checks a
// run and gives the core layer's figures, and, for the two serve
// workloads, the in-memory store of one pass plus the figures taken from a
// finished data directory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "harness.hpp"
#include "serve/admission_controller.hpp"
#include "sim/experiment.hpp"
#include "storage.hpp"

namespace perfbench {

/// The four online algorithms of the paper's Figure 1 sweeps.
inline constexpr vnfr::sim::Algorithm kOnlineAlgorithms[] = {
    vnfr::sim::Algorithm::kOnsitePrimalDual,
    vnfr::sim::Algorithm::kOnsiteGreedy,
    vnfr::sim::Algorithm::kOffsitePrimalDual,
    vnfr::sim::Algorithm::kOffsiteGreedy,
};

/// An instance of `environment`, built as core::make_instance builds it,
/// except that the network and VNF catalog come from fixed stream
/// `network` while the requests come from `rng`. Seeds then vary the
/// traffic, not the infrastructure it meets: a seed that drew small
/// cloudlets would otherwise shift every figure of its run.
vnfr::core::Instance make_workload_instance(const vnfr::core::InstanceConfig& environment,
                                            std::uint64_t network,
                                            vnfr::common::Rng& rng);

struct DecideReplay {
    double revenue{0};  ///< admitted payments, summed in decision order
    std::uint64_t admitted{0};
    std::vector<vnfr::core::Decision> decisions;  ///< parallel to the order
    vnfr::core::RejectionBreakdown rejections;
    std::vector<double> decide_ns;  ///< per decide(), when timed
};

/// Decides instance.requests[order[0]], [order[1]], ... with a fresh
/// `algorithm` scheduler, as the controller would have.
DecideReplay replay_decisions(vnfr::sim::Algorithm algorithm,
                              const vnfr::core::Instance& instance,
                              const std::vector<std::size_t>& order, bool timed);

/// Traced runs: core.decide_p50_ns.<algorithm> for the four online
/// algorithms over `order`, and core.<outcome> counts of `scheme_algorithm`.
void add_core_layers(RunResult& result, const vnfr::core::Instance& instance,
                     const std::vector<std::size_t>& order,
                     vnfr::sim::Algorithm scheme_algorithm);

/// One serve pass's storage: a fresh, empty in-memory data directory
/// behind a counting Vfs.
class ServeStore {
  public:
    explicit ServeStore(std::string data_dir)
        : vfs_(mem_, false), data_dir_(std::move(data_dir)) {
        mem_.make_dir(data_dir_);
    }
    ServeStore(const ServeStore&) = delete;
    ServeStore& operator=(const ServeStore&) = delete;

    /// The default ServeConfig, routed through this store.
    [[nodiscard]] vnfr::serve::ServeConfig config() {
        vnfr::serve::ServeConfig cfg;
        cfg.data_dir = data_dir_;
        cfg.vfs = &vfs_;
        return cfg;
    }
    [[nodiscard]] MemVfs& mem() { return mem_; }
    [[nodiscard]] const CountingVfs& counting() const { return vfs_; }
    [[nodiscard]] const StorageCounts& counts() const { return vfs_.counts(); }
    [[nodiscard]] std::string snapshot_path() const { return data_dir_ + "/snapshot.bin"; }

  private:
    MemVfs mem_;
    CountingVfs vfs_;
    std::string data_dir_;
};

/// A serve workload's instance and the medians of its set-up timings.
struct ServeSetup {
    std::optional<vnfr::core::Instance> instance;
    double setup_s{0};
    double make_instance_ms{0};
};

/// Sets a serve workload up `repeats` times: instance generation
/// (make_workload_instance on network 0, requests from `seed`), a fresh
/// data directory, and controller construction. Controllers bind to the
/// returned instance by reference, so it must stay where it is.
ServeSetup set_up_serve(const vnfr::core::InstanceConfig& environment,
                        vnfr::core::Scheme scheme, std::uint64_t seed, int repeats);

/// Constructs `repeats` controllers over the store's final directory and
/// returns each construction's seconds. Checks every restart reaches
/// `digest`; `replayed` receives the WAL records the last one replayed.
std::vector<double> time_restarts(RunResult& result, ServeStore& store,
                                  const vnfr::core::Instance& instance,
                                  vnfr::core::Scheme scheme, int repeats,
                                  std::uint64_t digest, std::uint64_t* replayed);

/// Framed bytes of the WAL decision records of `decisions`, made for
/// instance.requests[order[k]] in that order.
std::uint64_t wal_record_bytes(const vnfr::core::Instance& instance,
                               const std::vector<std::size_t>& order,
                               const std::vector<vnfr::core::Decision>& decisions);

/// Traced runs: serve.snapshot_* of the store's final snapshot, checking
/// that re-encoding the loaded snapshot reproduces the file.
void add_snapshot_layers(RunResult& result, ServeStore& store);

/// Traced runs: vfs.* of `counts`, with per-request ratios over `requests`
/// and write amplification over `record_bytes` (framed WAL-record bytes).
/// The vfs.<op>.busy_ms figures are the times `timed` took (0 if untimed).
void add_storage_layers(RunResult& result, const StorageCounts& counts,
                        const StorageCounts& timed, double requests, double record_bytes);

}  // namespace perfbench
