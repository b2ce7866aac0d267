// Monte-Carlo harness for the recovery orchestrator: fans fault-schedule
// replications out over a common::ThreadPool under the same determinism
// contract as run_experiment — replication k generates its schedule from
// stream_seed(master_seed, k) and the per-replication reports are reduced
// in ascending k order, so the aggregate (and its checksum) is
// bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "sim/recovery_engine.hpp"
#include "sim/recovery_faults.hpp"

namespace vnfr::sim {

/// Pluggable injector hook: replication k receives stream_seed(master_seed,
/// k) and must return the fault schedule to replay. The default generates
/// via generate_fault_schedule with the study's FaultInjectorConfig;
/// markov_injector() plugs in the Markov up/down model, and tests
/// substitute handcrafted schedules. Invoked concurrently — must be a pure
/// function of its arguments.
using FaultScheduleFactory = std::function<FaultSchedule(
    const core::Instance&, const std::vector<core::Decision>&, std::uint64_t seed)>;

/// An injector that replays generate_markov_schedule with `config`. Under
/// RecoveryPolicy::kNone this is the failure-replay study: delivered
/// availability against the promised Eq. 2 / Eq. 10 R_i, outages and
/// local/remote failovers.
FaultScheduleFactory markov_injector(MarkovFaultConfig config);

struct RecoveryStudyConfig {
    FaultInjectorConfig faults{};
    RecoveryConfig recovery{};
    std::size_t replications{5};
    /// Master seed; replication k replays stream_seed(master_seed, k).
    std::uint64_t master_seed{0x4ec0};
    /// Worker threads for the fan-out; 0 consults VNFR_THREADS / hardware
    /// concurrency. Results are identical for every value.
    std::size_t threads{0};
    /// Optional injector override; empty uses generate_fault_schedule.
    FaultScheduleFactory injector{};
};

struct RecoveryStudyOutcome {
    /// Counter-wise sum of every replication's report (ratio helpers like
    /// availability() then aggregate over all replications).
    RecoveryReport total;
    /// Per-replication spreads of the headline metrics.
    common::RunningStats availability;
    common::RunningStats delivered;        ///< mean delivered per-request R_i
    common::RunningStats time_to_recover;  ///< mean slots to recover per rep
    common::RunningStats shed_revenue;
};

/// Order-sensitive 64-bit digest over every counter and statistic of the
/// outcome (same FNV-1a construction as sim::metrics_checksum). The
/// thread-count-invariance test and the recovery bench artifact compare
/// exactly this.
std::uint64_t recovery_metrics_checksum(const RecoveryStudyOutcome& outcome);

/// Runs `config.replications` independent fault schedules against the same
/// (instance, decisions) under the configured recovery policy, every one
/// replayed from a single RecoveryReplay base. Throws (via VNFR_CHECK) on
/// zero replications; the base and schedule preconditions are those of
/// RecoveryReplay.
RecoveryStudyOutcome run_recovery_replications(
    const core::Instance& instance, const std::vector<core::Decision>& decisions,
    const RecoveryStudyConfig& config);

}  // namespace vnfr::sim
