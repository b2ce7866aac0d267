#include "sim/recovery_study.hpp"

#include "common/contracts.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace vnfr::sim {

namespace {

void accumulate(RecoveryReport& total, const RecoveryReport& rep) {
    total.request_slots += rep.request_slots;
    total.served_slots += rep.served_slots;
    total.disrupted_slots += rep.disrupted_slots;
    total.cloudlet_crashes += rep.cloudlet_crashes;
    total.instance_crashes += rep.instance_crashes;
    total.transient_blips += rep.transient_blips;
    total.rack_failures += rep.rack_failures;
    total.instances_lost += rep.instances_lost;
    total.local_respawns += rep.local_respawns;
    total.remote_migrations += rep.remote_migrations;
    total.readmissions += rep.readmissions;
    total.failed_recoveries += rep.failed_recoveries;
    total.local_failovers += rep.local_failovers;
    total.remote_failovers += rep.remote_failovers;
    total.outages += rep.outages;
    total.recovered_outages += rep.recovered_outages;
    total.recovery_slots_total += rep.recovery_slots_total;
    total.shed_requests += rep.shed_requests;
    total.shed_revenue += rep.shed_revenue;
    total.sla_requests += rep.sla_requests;
    total.sla_violations += rep.sla_violations;
    total.promised_availability_sum += rep.promised_availability_sum;
    total.delivered_availability_sum += rep.delivered_availability_sum;
    total.capacity_violations += rep.capacity_violations;
}

}  // namespace

FaultScheduleFactory markov_injector(MarkovFaultConfig config) {
    return [config](const core::Instance& instance,
                    const std::vector<core::Decision>& decisions, std::uint64_t seed) {
        return generate_markov_schedule(instance, decisions, config, seed);
    };
}

std::uint64_t recovery_metrics_checksum(const RecoveryStudyOutcome& outcome) {
    common::Fnv1a digest;
    const RecoveryReport& t = outcome.total;
    digest.mix(static_cast<std::uint64_t>(t.request_slots));
    digest.mix(static_cast<std::uint64_t>(t.served_slots));
    digest.mix(static_cast<std::uint64_t>(t.disrupted_slots));
    digest.mix(static_cast<std::uint64_t>(t.cloudlet_crashes));
    digest.mix(static_cast<std::uint64_t>(t.instance_crashes));
    digest.mix(static_cast<std::uint64_t>(t.transient_blips));
    digest.mix(static_cast<std::uint64_t>(t.rack_failures));
    digest.mix(static_cast<std::uint64_t>(t.instances_lost));
    digest.mix(static_cast<std::uint64_t>(t.local_respawns));
    digest.mix(static_cast<std::uint64_t>(t.remote_migrations));
    digest.mix(static_cast<std::uint64_t>(t.readmissions));
    digest.mix(static_cast<std::uint64_t>(t.failed_recoveries));
    digest.mix(static_cast<std::uint64_t>(t.local_failovers));
    digest.mix(static_cast<std::uint64_t>(t.remote_failovers));
    digest.mix(static_cast<std::uint64_t>(t.outages));
    digest.mix(static_cast<std::uint64_t>(t.recovered_outages));
    digest.mix(static_cast<std::uint64_t>(t.recovery_slots_total));
    digest.mix(static_cast<std::uint64_t>(t.shed_requests));
    digest.mix(t.shed_revenue);
    digest.mix(static_cast<std::uint64_t>(t.sla_requests));
    digest.mix(static_cast<std::uint64_t>(t.sla_violations));
    digest.mix(t.promised_availability_sum);
    digest.mix(t.delivered_availability_sum);
    digest.mix(static_cast<std::uint64_t>(t.capacity_violations));
    digest.mix(outcome.availability);
    digest.mix(outcome.delivered);
    digest.mix(outcome.time_to_recover);
    digest.mix(outcome.shed_revenue);
    return digest.value();
}

RecoveryStudyOutcome run_recovery_replications(
    const core::Instance& instance, const std::vector<core::Decision>& decisions,
    const RecoveryStudyConfig& config) {
    VNFR_CHECK(config.replications >= 1,
               "run_recovery_replications: replications must be >= 1");

    const FaultScheduleFactory injector =
        config.injector
            ? config.injector
            : FaultScheduleFactory(
                  [&config](const core::Instance& inst,
                            const std::vector<core::Decision>& decs, std::uint64_t seed) {
                      return generate_fault_schedule(inst, decs, config.faults, seed);
                  });

    // One replay base for the study, shared read-only by every worker.
    const RecoveryReplay replay(instance, decisions, config.recovery);

    // Fan the replications out; each writes only its own pre-sized slot.
    std::vector<RecoveryReport> reps(config.replications);
    {
        common::ThreadPool pool(config.threads);
        pool.parallel_for_blocked(
            0, config.replications, 1, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t k = lo; k < hi; ++k) {
                    const FaultSchedule schedule = injector(
                        instance, decisions, common::stream_seed(config.master_seed, k));
                    reps[k] = replay.run(schedule);
                }
            });
    }

    // Ordered reduction in ascending k — the other half of the determinism
    // contract.
    RecoveryStudyOutcome outcome;
    for (std::size_t k = 0; k < config.replications; ++k) {
        const RecoveryReport& rep = reps[k];
        accumulate(outcome.total, rep);
        outcome.availability.add(rep.availability());
        outcome.delivered.add(rep.mean_delivered());
        outcome.time_to_recover.add(rep.mean_time_to_recover());
        outcome.shed_revenue.add(rep.shed_revenue);
    }
    return outcome;
}

}  // namespace vnfr::sim
