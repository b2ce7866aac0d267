// Slot-stepped discrete-time simulation of an online scheduler.
//
// Walks the horizon T slot by slot, delivers each slot's arrivals to the
// scheduler (the online model of Section III.B: requests arrive at slot
// starts, one by one, future unknown) and records a per-slot timeline. The
// availability actually delivered to admitted requests is measured by
// replaying the schedule through the recovery engine (recovery_study.hpp).
#pragma once

#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace vnfr::sim {

struct SlotRecord {
    TimeSlot slot{0};
    std::size_t arrivals{0};
    std::size_t admitted{0};         ///< of this slot's arrivals
    std::size_t active_requests{0};  ///< admitted requests covering the slot
    double mean_utilization{0};      ///< across cloudlets at this slot
};

struct SimulationReport {
    core::ScheduleResult schedule;
    std::vector<SlotRecord> timeline;  ///< one record per slot
};

/// Runs `scheduler` over the instance. Requests must already be sorted by
/// arrival (Instance::validate enforces this).
SimulationReport simulate(const core::Instance& instance, core::OnlineScheduler& scheduler);

}  // namespace vnfr::sim
