#include "sim/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"
#include "core/verify.hpp"

namespace vnfr::sim {

PlacementStats placement_stats(const core::Instance& instance,
                               const std::vector<core::Decision>& decisions) {
    if (decisions.size() != instance.requests.size())
        throw std::invalid_argument("placement_stats: decisions/requests size mismatch");
    PlacementStats stats;
    stats.min_slack = std::numeric_limits<double>::infinity();
    double sites = 0.0;
    double replicas = 0.0;
    double hops = 0.0;
    double availability = 0.0;
    double access_hops = 0.0;
    std::size_t with_source = 0;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        const core::Decision& d = decisions[i];
        if (!d.admitted) continue;
        ++stats.admitted;
        sites += static_cast<double>(d.placement.sites.size());
        for (const core::Site& s : d.placement.sites) replicas += s.replicas;

        double pair_hops = 0.0;
        std::size_t pairs = 0;
        for (std::size_t a = 0; a < d.placement.sites.size(); ++a) {
            for (std::size_t b = a + 1; b < d.placement.sites.size(); ++b) {
                const int h = instance.network.hop_distance(d.placement.sites[a].cloudlet,
                                                            d.placement.sites[b].cloudlet);
                if (h >= 0) {
                    pair_hops += h;
                    ++pairs;
                }
            }
        }
        if (pairs > 0) hops += pair_hops / static_cast<double>(pairs);

        if (instance.requests[i].source.valid() && !d.placement.sites.empty()) {
            int nearest = -1;
            for (const core::Site& s : d.placement.sites) {
                const int h =
                    instance.network.hop_distance_from(instance.requests[i].source,
                                                       s.cloudlet);
                if (h >= 0 && (nearest < 0 || h < nearest)) nearest = h;
            }
            if (nearest >= 0) {
                access_hops += nearest;
                ++with_source;
            }
        }

        const double avail =
            core::placement_availability(instance, instance.requests[i], d.placement);
        availability += avail;
        stats.min_slack = std::min(stats.min_slack, avail - instance.requests[i].requirement);
    }
    if (stats.admitted > 0) {
        const auto n = static_cast<double>(stats.admitted);
        stats.mean_sites = sites / n;
        stats.mean_replicas = replicas / n;
        stats.mean_pairwise_hops = hops / n;
        stats.mean_availability = availability / n;
        if (with_source > 0) {
            stats.mean_access_hops = access_hops / static_cast<double>(with_source);
        }
    } else {
        stats.min_slack = 0.0;
    }
    return stats;
}

}  // namespace vnfr::sim
