// Fault taxonomy and deterministic fault-schedule generation for the
// recovery orchestrator (see recovery_engine.hpp).
//
// The runtime distinguishes hardware from software state:
//
//   kCloudletCrash   the cloudlet reboots after a sampled repair time, but
//                    every VNF instance hosted on it loses its state and
//                    stays dead until a recovery policy re-instantiates it;
//   kRackFailure     a correlated crash of `span` consecutive cloudlet ids
//                    (shared power/switch domain), same instance-loss rule;
//   kTransientBlip   the cloudlet is unreachable for `down_slots` slots;
//                    instances survive (processes keep running);
//   kInstanceCrash   one replica of one placement dies and stays dead until
//                    recovered;
//   kInstanceOutage  one replica is unreachable for `down_slots` slots and
//                    keeps its state.
//
// Two generators produce schedules. generate_fault_schedule draws
// independent per-slot crash, blip and rack events (blips last one slot).
// generate_markov_schedule models every cloudlet and every replica of an
// active admitted placement as a two-state up/down Markov chain over slots
// whose stationary up-probability equals the component's reliability r and
// whose mean repair time is a parameter:
//
//   P(down -> up)  = 1 / mttr_slots
//   P(up -> down)  = (1 - r) / (r * mttr_slots)   (clamped to 1)
//
// so longer repair times mean rarer but longer outages at the same long-run
// availability. Its cloudlet outages are blips and its replica outages are
// instance outages: nothing is lost, so a replay under RecoveryPolicy::kNone
// delivers exactly the Eq. 2 / Eq. 10 availability in expectation.
//
// A FaultSchedule is *data*, generated up front from a seed: the same
// (instance, decisions, config, seed) tuple always yields the same event
// sequence, so different recovery policies can be compared under identical
// fault schedules and Monte-Carlo replications can fan out over threads
// without sharing generator state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace vnfr::sim {

enum class FaultKind {
    kCloudletCrash,
    kInstanceCrash,
    kTransientBlip,
    kRackFailure,
    kInstanceOutage,
};

const char* to_string(FaultKind kind);

struct FaultEvent {
    TimeSlot slot{0};
    FaultKind kind{FaultKind::kCloudletCrash};
    /// Crash/blip: the affected cloudlet. Rack: first cloudlet of the rack.
    CloudletId cloudlet{};
    /// Rack failures take down cloudlet ids [cloudlet, cloudlet + span).
    std::size_t span{1};
    /// Slots the hardware (crash/rack) or the reachability (blip, instance
    /// outage) is down, counting the event's own slot; >= 1.
    TimeSlot down_slots{1};
    /// Instance crash/outage: victim replica, addressed by the request's
    /// index in Instance::requests plus the (site, replica) slot of its
    /// placement at admission time. Recovery policies that respawn a replica
    /// reuse the same slot identity, so a later event can hit the respawn
    /// again. If the slot no longer exists (e.g. after a re-admission
    /// reshaped the placement) or is already dead, the event is a no-op.
    std::size_t request_index{0};
    std::size_t site{0};
    std::size_t replica{0};
};

/// Per-slot event probabilities. All rates are Bernoulli probabilities per
/// slot (per cloudlet for crash/blip, per active admitted request for
/// instance crashes, per slot overall for rack events).
struct FaultInjectorConfig {
    double cloudlet_crash_per_slot{0.01};
    double instance_crash_per_slot{0.02};
    double transient_blip_per_slot{0.01};
    double rack_failure_per_slot{0.0};
    /// Consecutive cloudlet ids sharing a rack (clamped to the fleet size).
    std::size_t rack_span{2};
    /// Mean hardware repair time for crashes/rack failures, in slots.
    double cloudlet_mttr_slots{4.0};
};

struct FaultSchedule {
    /// Events sorted by slot (ties keep generation order: cloudlet events
    /// before rack events before instance events within a slot).
    std::vector<FaultEvent> events;
    std::size_t cloudlet_crashes{0};
    std::size_t instance_crashes{0};
    std::size_t transient_blips{0};
    std::size_t rack_failures{0};
    std::size_t instance_outages{0};
};

/// Generates the full fault schedule for one replay of `decisions` on
/// `instance`. Pure function of its arguments: the RNG is seeded from
/// `seed` alone, so replication k of a Monte-Carlo study passes
/// stream_seed(master_seed, k) and gets a thread-count-independent
/// schedule. Throws (via VNFR_CHECK) on rates outside [0, 1] or a
/// non-finite / non-positive MTTR; throws std::invalid_argument when
/// `decisions` does not parallel `instance.requests`.
FaultSchedule generate_fault_schedule(const core::Instance& instance,
                                      const std::vector<core::Decision>& decisions,
                                      const FaultInjectorConfig& config,
                                      std::uint64_t seed);

/// Mean repair times of the Markov up/down model, in slots.
struct MarkovFaultConfig {
    double cloudlet_mttr_slots{4.0};
    double instance_mttr_slots{2.0};
};

/// Generates one Markov up/down replay of `decisions` on `instance`.
/// Components start in steady state (down with probability 1 - r). A
/// component that was up in the previous slot fails with the chain's
/// P(up -> down); the failure draws a geometric down length with mean MTTR
/// and emits one event (kTransientBlip for a cloudlet, kInstanceOutage for
/// a replica), so events come out in slot order. Replicas are modelled only
/// while their request is active. Pure function of its arguments, like
/// generate_fault_schedule. Throws (via VNFR_CHECK) on an MTTR below one
/// slot or not finite; throws std::invalid_argument when `decisions` does
/// not parallel `instance.requests` or an admitted placement names an
/// unknown cloudlet or a non-positive replica count.
FaultSchedule generate_markov_schedule(const core::Instance& instance,
                                       const std::vector<core::Decision>& decisions,
                                       const MarkovFaultConfig& config, std::uint64_t seed);

}  // namespace vnfr::sim
