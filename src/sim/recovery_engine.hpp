// Recovery orchestrator: event-driven fault-tolerance loop over a finished
// schedule, and the one failure-replay path of the simulator.
//
// A FaultSchedule (recovery_faults.hpp) injects cloudlet crashes, instance
// crashes, transient blips, correlated rack failures and instance outages.
// Either generator feeds it: per-slot independent fault rates, or the
// Markov up/down model whose replay under kNone measures the Eq. 2 / Eq. 10
// availability actually delivered. Recovery visits react with a
// configurable policy:
//
//   kNone           no recovery — dead instances stay dead;
//   kLocalRespawn   re-instantiate dead replicas on their own cloudlet,
//                   with bounded retry and exponential backoff;
//   kRemoteMigrate  re-run the off-site selection of Algorithm 2 (with
//                   zero duals: reliability-ordered, capacity-checked) over
//                   surviving cloudlets for the request's remaining slots,
//                   adding sites until the promised R_i is met again;
//   kReadmit        full re-admission through the live scheduler logic
//                   (cheapest of on-site Eq. 3 and off-site Eq. 10 over
//                   surviving cloudlets), make-before-break: the old
//                   placement is only torn down once the new one holds
//                   reservations.
//
// A replay does work where something changed: a request is visited only
// when a fault, a handover lapse or an expired backoff or outage leaves it
// something to recover, and the shedding scan walks only the holders that
// could still be victims (DESIGN.md §6b). Every slot is still accounted and
// audited.
//
// Every recovery placement is routed through an edge::ResourceLedger in
// kEnforce mode, so recovery can never violate capacity. When capacity is
// insufficient, the engine degrades gracefully: it sheds currently active
// lower-payment requests (lowest payment first, and only when the freed
// space actually makes the recovery fit) and records the SLA damage —
// delivered vs promised R_i, time-to-recover, failovers by type, and shed
// revenue. Shedding is dominance-guarded: it only fires to restore a
// request with no serving replica (never to repair redundancy), and only
// when the victims lose strictly fewer slots than the beneficiary stands
// to gain — so every policy delivers at least kNone's availability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "sim/recovery_faults.hpp"

namespace vnfr::sim {

enum class RecoveryPolicy {
    kNone,
    kLocalRespawn,
    kRemoteMigrate,
    kReadmit,
};

const char* to_string(RecoveryPolicy policy);

struct RecoveryConfig {
    RecoveryPolicy policy{RecoveryPolicy::kNone};
    /// Bounded retry per replica slot (kLocalRespawn) or per request
    /// (kRemoteMigrate / kReadmit); further attempts are abandoned.
    int max_retries{4};
    /// Slots between a successful recovery action and the instance serving
    /// again (boot/state-sync time). 0 means instant recovery.
    TimeSlot respawn_delay_slots{1};
    /// Base backoff after a failed attempt; doubles per consecutive failure
    /// (capped at 64x) so a congested cloudlet is not hammered every slot.
    TimeSlot retry_backoff_slots{1};
    /// Graceful degradation: allow shedding active lower-payment requests
    /// when a recovery reservation does not fit. Shedding only happens when
    /// the freed capacity makes the reservation fit, every victim pays less
    /// than the recovering request, the recovering request is not serving
    /// at all (a dead placement, not degraded redundancy), and the victims'
    /// lost slots stay strictly below the slots the recovery gains.
    bool allow_shedding{true};
};

struct RecoveryReport {
    // Slot accounting over active (request x slot) samples; shed requests
    // keep counting (as disrupted) for the rest of their windows, so
    // shedding can never inflate availability.
    std::size_t request_slots{0};
    std::size_t served_slots{0};
    std::size_t disrupted_slots{0};

    // Faults actually applied (an instance-crash event targeting an
    // already-dead or vanished replica slot is not counted).
    std::size_t cloudlet_crashes{0};
    std::size_t instance_crashes{0};
    std::size_t transient_blips{0};
    std::size_t rack_failures{0};
    std::size_t instances_lost{0};  ///< replicas killed by any fault kind

    // Recovery actions.
    std::size_t local_respawns{0};     ///< replicas re-instantiated in place
    std::size_t remote_migrations{0};  ///< site sets extended to meet R_i again
    std::size_t readmissions{0};       ///< placements rebuilt from scratch
    std::size_t failed_recoveries{0};  ///< attempts beaten by capacity/outages

    // Failovers observed in the serving path, between consecutive served
    // slots: the serving (site, replica) changed on the same cloudlet
    // (local) or the serving cloudlet changed (remote).
    std::size_t local_failovers{0};
    std::size_t remote_failovers{0};
    std::size_t outages{0};            ///< served -> disrupted transitions
    std::size_t recovered_outages{0};  ///< disrupted -> served transitions
    std::size_t recovery_slots_total{0};  ///< summed lengths of recovered outages

    // Graceful degradation.
    std::size_t shed_requests{0};
    double shed_revenue{0};

    // SLA accounting over admitted requests whose windows completed.
    std::size_t sla_requests{0};
    std::size_t sla_violations{0};  ///< delivered availability < promised R_i
    double promised_availability_sum{0};
    double delivered_availability_sum{0};

    /// Ledger-audited capacity violations (usage > capacity at any slot);
    /// always 0 by construction — the audit is the proof, not a tolerance.
    std::size_t capacity_violations{0};

    [[nodiscard]] double availability() const {
        return request_slots == 0 ? 0.0
                                  : static_cast<double>(served_slots) /
                                        static_cast<double>(request_slots);
    }
    /// Mean promised R_i over completed requests (0 when none completed).
    [[nodiscard]] double mean_promised() const {
        return sla_requests == 0
                   ? 0.0
                   : promised_availability_sum / static_cast<double>(sla_requests);
    }
    /// Mean delivered per-request availability (0 when none completed).
    [[nodiscard]] double mean_delivered() const {
        return sla_requests == 0
                   ? 0.0
                   : delivered_availability_sum / static_cast<double>(sla_requests);
    }
    /// Mean slots from a served->disrupted transition back to serving,
    /// over outages that recovered within the window (0 when none did).
    [[nodiscard]] double mean_time_to_recover() const {
        return recovered_outages == 0
                   ? 0.0
                   : static_cast<double>(recovery_slots_total) /
                         static_cast<double>(recovered_outages);
    }
};

/// Thrown when the admitted decisions overcommit a cloudlet, so they cannot
/// be replayed into the enforcing ledger (the pure Algorithm 1 variant).
class ScheduleNotReplayable : public std::invalid_argument {
  public:
    using std::invalid_argument::invalid_argument;
};

/// One study's replay base: the engine's initial state for one
/// (instance, decisions, config), built once and replayed under any number
/// of fault schedules. Construction validates the instance and the config,
/// replays the initial reservations of every admitted decision into a
/// fresh kEnforce ledger (throws ScheduleNotReplayable if they do not fit —
/// recovery studies require capacity-respecting schedules, i.e. any
/// scheduler except the pure Algorithm 1 variant), lays every placement out
/// in one flat site and replica arena and records, per cloudlet, the
/// requests holding a site there. run() copies that state (a few
/// allocations per cloudlet, however many requests were admitted) and
/// replays one schedule on the copy, so a const base may be shared across
/// threads. The instance and decisions must outlive the base.
class RecoveryReplay {
  public:
    RecoveryReplay(const core::Instance& instance, const std::vector<core::Decision>& decisions,
                   const RecoveryConfig& config = {});
    ~RecoveryReplay();

    /// Replays `schedule`'s faults with the configured recovery policy. The
    /// schedule is validated up front: slots must be non-decreasing and
    /// inside [0, horizon), cloudlet ids (crash, blip, rack) and request
    /// indices in range, and down_slots and span >= 1; a violation throws
    /// std::invalid_argument naming the event index and the field. A
    /// site/replica address the placement does not have is a no-op, not an
    /// error, and a rack running past the last cloudlet id crashes the ids
    /// that exist. Deterministic: consumes no randomness beyond what
    /// `schedule` froze.
    [[nodiscard]] RecoveryReport run(const FaultSchedule& schedule) const;

  private:
    struct Base;
    class Engine;
    std::unique_ptr<Base> base_;
};

/// One-shot RecoveryReplay(instance, decisions, config).run(schedule); the
/// preconditions and exceptions are those of the two steps.
RecoveryReport run_recovery_study(const core::Instance& instance,
                                  const std::vector<core::Decision>& decisions,
                                  const FaultSchedule& schedule,
                                  const RecoveryConfig& config = {});

}  // namespace vnfr::sim
