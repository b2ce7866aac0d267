#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdint>

#include "common/contracts.hpp"

namespace vnfr::sim {

SimulationReport simulate(const core::Instance& instance, core::OnlineScheduler& scheduler) {
    instance.validate();
    SimulationReport report;
    report.schedule.decisions.resize(instance.requests.size());
    report.timeline.reserve(static_cast<std::size_t>(instance.horizon));

    // Admitted requests whose window covers the current slot, kept as
    // indices into instance.requests.
    std::vector<std::size_t> active;
    std::size_t next_request = 0;

    for (TimeSlot t = 0; t < instance.horizon; ++t) {
        SlotRecord record;
        record.slot = t;

        // Deliver this slot's arrivals in order.
        while (next_request < instance.requests.size() &&
               instance.requests[next_request].arrival == t) {
            const workload::Request& r = instance.requests[next_request];
            core::Decision d = scheduler.decide(r);
            ++record.arrivals;
            if (d.admitted) {
                ++record.admitted;
                ++report.schedule.admitted;
                report.schedule.revenue += r.payment;
                active.push_back(next_request);
            }
            report.schedule.decisions[next_request] = std::move(d);
            ++next_request;
        }

        // Retire requests whose window ended before this slot.
        std::erase_if(active, [&](std::size_t i) {
            return !instance.requests[i].covers(t);
        });
        record.active_requests = active.size();

        const edge::ResourceLedger& ledger = scheduler.ledger();
        double util = 0.0;
        for (std::size_t j = 0; j < ledger.cloudlet_count(); ++j) {
            const CloudletId c{static_cast<std::int64_t>(j)};
            VNFR_DCHECK(ledger.usage(c, t) >= 0.0, "ledger usage went negative at cloudlet ",
                        j, " slot ", t);
            util += ledger.usage(c, t) / ledger.capacity(c);
        }
        VNFR_CHECK_FINITE(util);
        record.mean_utilization =
            ledger.cloudlet_count() == 0 ? 0.0
                                         : util / static_cast<double>(ledger.cloudlet_count());
        report.timeline.push_back(record);
    }

    const edge::ResourceLedger& ledger = scheduler.ledger();
    report.schedule.max_overshoot = ledger.max_overshoot();
    for (std::size_t j = 0; j < ledger.cloudlet_count(); ++j) {
        const CloudletId c{static_cast<std::int64_t>(j)};
        for (TimeSlot t = 0; t < ledger.horizon(); ++t) {
            report.schedule.max_load_factor = std::max(
                report.schedule.max_load_factor, ledger.usage(c, t) / ledger.capacity(c));
        }
    }
    return report;
}

}  // namespace vnfr::sim
