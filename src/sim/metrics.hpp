// Post-run metrics derived from an instance + schedule result.
#pragma once

#include <cstddef>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace vnfr::sim {

/// Aggregate shape of the admitted placements.
struct PlacementStats {
    std::size_t admitted{0};
    double mean_sites{0};          ///< cloudlets per admitted request
    double mean_replicas{0};       ///< total VNF instances per admitted request
    /// Mean pairwise AP hop distance between a placement's sites — the
    /// off-site scheme's geographic-redundancy traffic cost; 0 for
    /// single-site placements.
    double mean_pairwise_hops{0};
    /// Mean hop distance from a request's source AP to its *nearest* placed
    /// site (service access latency proxy); only over admitted requests
    /// with a known source.
    double mean_access_hops{0};
    double mean_availability{0};   ///< core::placement_availability, over admitted requests
    /// Smallest availability-minus-requirement margin over admitted
    /// requests (>= 0 when every reliability requirement is honoured).
    double min_slack{0};
};

PlacementStats placement_stats(const core::Instance& instance,
                               const std::vector<core::Decision>& decisions);

}  // namespace vnfr::sim
