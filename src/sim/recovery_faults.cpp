#include "sim/recovery_faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "edge/cloudlet.hpp"

namespace vnfr::sim {

const char* to_string(FaultKind kind) {
    switch (kind) {
        case FaultKind::kCloudletCrash: return "cloudlet-crash";
        case FaultKind::kInstanceCrash: return "instance-crash";
        case FaultKind::kTransientBlip: return "transient-blip";
        case FaultKind::kRackFailure: return "rack-failure";
        case FaultKind::kInstanceOutage: return "instance-outage";
    }
    throw std::invalid_argument("to_string: unknown FaultKind");
}

namespace {

/// Sampled hardware repair time with the configured mean, never below one
/// slot (a crash always costs at least the slot it lands on) and saturated
/// at the largest TimeSlot, which the replay reads as "for the rest of the
/// run": a draw past it must not wrap into a short outage.
TimeSlot sample_down_slots(common::Rng& rng, double mttr) {
    constexpr TimeSlot kLongest = std::numeric_limits<TimeSlot>::max();
    const double draw = rng.exponential(1.0 / mttr);
    if (draw >= static_cast<double>(kLongest)) return kLongest;
    return std::max<TimeSlot>(1, static_cast<TimeSlot>(std::lround(draw)));
}

/// One component's up/down Markov chain (see recovery_faults.hpp).
class Chain {
  public:
    Chain(double reliability, double mttr)
        : reliability_(reliability),
          p_repair_(1.0 / mttr),
          p_fail_(VNFR_CHECK_PROB(std::min(1.0, (1.0 - reliability) / (reliability * mttr)))) {}

    /// Steps the chain into slot `t`; on its first modelled slot the state
    /// is drawn from the stationary distribution instead. Returns the
    /// outage length when the component goes down at `t`, else 0.
    TimeSlot step(common::Rng& rng, TimeSlot t, bool first, TimeSlot horizon) {
        // Only a component that was up in slot t - 1 can take the up -> down
        // step; one that just came back at t was down in t - 1.
        const bool fails = first ? !rng.bernoulli(reliability_)
                                 : t > down_until_ && rng.bernoulli(p_fail_);
        if (!fails) return 0;
        // Geometric down length on {1, 2, ...} with mean 1 / p_repair: the
        // slots until the down -> up step first fires. A stationary start
        // in the down state draws the same length, the chain being
        // memoryless.
        TimeSlot down = 1;
        if (p_repair_ < 1.0) {
            const double extra =
                std::floor(std::log1p(-rng.uniform01()) / std::log1p(-p_repair_));
            down += static_cast<TimeSlot>(std::min(extra, static_cast<double>(horizon)));
        }
        down_until_ = t + down;
        return down;
    }

  private:
    double reliability_;
    double p_repair_;
    double p_fail_;
    TimeSlot down_until_{0};  ///< first slot up again
};

}  // namespace

FaultSchedule generate_fault_schedule(const core::Instance& instance,
                                      const std::vector<core::Decision>& decisions,
                                      const FaultInjectorConfig& config,
                                      std::uint64_t seed) {
    if (decisions.size() != instance.requests.size())
        throw std::invalid_argument(
            "generate_fault_schedule: decisions/requests size mismatch");
    VNFR_CHECK_PROB(config.cloudlet_crash_per_slot);
    VNFR_CHECK_PROB(config.instance_crash_per_slot);
    VNFR_CHECK_PROB(config.transient_blip_per_slot);
    VNFR_CHECK_PROB(config.rack_failure_per_slot);
    VNFR_CHECK(std::isfinite(config.cloudlet_mttr_slots) &&
                   config.cloudlet_mttr_slots > 0.0,
               "cloudlet_mttr_slots must be positive and finite, got ",
               config.cloudlet_mttr_slots);
    VNFR_CHECK(config.rack_span >= 1, "rack_span must be >= 1");

    const std::size_t m = instance.network.cloudlet_count();
    common::Rng rng(seed);
    FaultSchedule schedule;

    // Requests are sorted by arrival, so a sliding window of active admitted
    // requests per slot needs one pass.
    std::size_t next_request = 0;
    std::vector<std::size_t> active;
    for (TimeSlot t = 0; t < instance.horizon; ++t) {
        while (next_request < instance.requests.size() &&
               instance.requests[next_request].arrival == t) {
            if (decisions[next_request].admitted) active.push_back(next_request);
            ++next_request;
        }
        std::erase_if(active,
                      [&](std::size_t i) { return !instance.requests[i].covers(t); });

        for (std::size_t j = 0; j < m; ++j) {
            const CloudletId c{static_cast<std::int64_t>(j)};
            if (rng.bernoulli(config.cloudlet_crash_per_slot)) {
                FaultEvent e;
                e.slot = t;
                e.kind = FaultKind::kCloudletCrash;
                e.cloudlet = c;
                e.down_slots = sample_down_slots(rng, config.cloudlet_mttr_slots);
                schedule.events.push_back(e);
                ++schedule.cloudlet_crashes;
            }
            if (rng.bernoulli(config.transient_blip_per_slot)) {
                FaultEvent e;
                e.slot = t;
                e.kind = FaultKind::kTransientBlip;
                e.cloudlet = c;
                e.down_slots = 1;
                schedule.events.push_back(e);
                ++schedule.transient_blips;
            }
        }

        if (m > 0 && rng.bernoulli(config.rack_failure_per_slot)) {
            FaultEvent e;
            e.slot = t;
            e.kind = FaultKind::kRackFailure;
            const auto base = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
            e.cloudlet = CloudletId{static_cast<std::int64_t>(base)};
            e.span = std::min(config.rack_span, m - base);
            e.down_slots = sample_down_slots(rng, config.cloudlet_mttr_slots);
            schedule.events.push_back(e);
            ++schedule.rack_failures;
        }

        for (const std::size_t i : active) {
            if (!rng.bernoulli(config.instance_crash_per_slot)) continue;
            const core::Placement& p = decisions[i].placement;
            if (p.sites.empty()) continue;
            FaultEvent e;
            e.slot = t;
            e.kind = FaultKind::kInstanceCrash;
            e.request_index = i;
            e.site = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(p.sites.size()) - 1));
            const int replicas = std::max(1, p.sites[e.site].replicas);
            e.replica = static_cast<std::size_t>(rng.uniform_int(0, replicas - 1));
            e.cloudlet = p.sites[e.site].cloudlet;
            schedule.events.push_back(e);
            ++schedule.instance_crashes;
        }
    }
    return schedule;
}

FaultSchedule generate_markov_schedule(const core::Instance& instance,
                                       const std::vector<core::Decision>& decisions,
                                       const MarkovFaultConfig& config, std::uint64_t seed) {
    if (decisions.size() != instance.requests.size())
        throw std::invalid_argument(
            "generate_markov_schedule: decisions/requests size mismatch");
    VNFR_CHECK(std::isfinite(config.cloudlet_mttr_slots) && config.cloudlet_mttr_slots >= 1.0,
               "cloudlet_mttr_slots must be finite and >= 1 slot, got ",
               config.cloudlet_mttr_slots);
    VNFR_CHECK(std::isfinite(config.instance_mttr_slots) && config.instance_mttr_slots >= 1.0,
               "instance_mttr_slots must be finite and >= 1 slot, got ",
               config.instance_mttr_slots);
    const std::size_t m = instance.network.cloudlet_count();
    for (const core::Decision& d : decisions) {
        if (!d.admitted) continue;
        for (const core::Site& site : d.placement.sites) {
            if (!site.cloudlet.valid() || site.cloudlet.index() >= m)
                throw std::invalid_argument(
                    "generate_markov_schedule: unknown cloudlet in placement");
            if (site.replicas < 1)
                throw std::invalid_argument(
                    "generate_markov_schedule: non-positive replicas");
        }
    }

    common::Rng rng(seed);
    FaultSchedule schedule;
    std::vector<Chain> cloudlets;
    cloudlets.reserve(m);
    for (const edge::Cloudlet& c : instance.network.cloudlets()) {
        cloudlets.emplace_back(c.reliability, config.cloudlet_mttr_slots);
    }
    // Per admitted request, one chain per replica in (site, replica) order,
    // built when the request arrives.
    std::vector<std::vector<Chain>> replicas(decisions.size());

    std::size_t next_request = 0;
    std::vector<std::size_t> active;
    for (TimeSlot t = 0; t < instance.horizon; ++t) {
        while (next_request < instance.requests.size() &&
               instance.requests[next_request].arrival == t) {
            const std::size_t i = next_request++;
            if (!decisions[i].admitted) continue;
            active.push_back(i);
            const double vnf_rel = instance.catalog.reliability(instance.requests[i].vnf);
            for (const core::Site& site : decisions[i].placement.sites) {
                for (int k = 0; k < site.replicas; ++k) {
                    replicas[i].emplace_back(vnf_rel, config.instance_mttr_slots);
                }
            }
        }
        std::erase_if(active,
                      [&](std::size_t i) { return !instance.requests[i].covers(t); });

        for (std::size_t j = 0; j < m; ++j) {
            const TimeSlot down = cloudlets[j].step(rng, t, t == 0, instance.horizon);
            if (down == 0) continue;
            FaultEvent e;
            e.slot = t;
            e.kind = FaultKind::kTransientBlip;
            e.cloudlet = CloudletId{static_cast<std::int64_t>(j)};
            e.down_slots = down;
            schedule.events.push_back(e);
            ++schedule.transient_blips;
        }

        for (const std::size_t i : active) {
            const core::Placement& p = decisions[i].placement;
            const bool first = instance.requests[i].arrival == t;
            std::size_t chain = 0;
            for (std::size_t s = 0; s < p.sites.size(); ++s) {
                for (int k = 0; k < p.sites[s].replicas; ++k) {
                    const TimeSlot down =
                        replicas[i][chain++].step(rng, t, first, instance.horizon);
                    if (down == 0) continue;
                    FaultEvent e;
                    e.slot = t;
                    e.kind = FaultKind::kInstanceOutage;
                    e.cloudlet = p.sites[s].cloudlet;
                    e.down_slots = down;
                    e.request_index = i;
                    e.site = s;
                    e.replica = static_cast<std::size_t>(k);
                    schedule.events.push_back(e);
                    ++schedule.instance_outages;
                }
            }
        }
    }
    return schedule;
}

}  // namespace vnfr::sim
