// Analytic availability of a concrete placement.
//
// Failure model (matching the paper's reliability semantics): in any
// observation, cloudlet c_j is up with probability r(c_j) and each VNF
// instance is independently up with probability r(f_i); a request is served
// when at least one of its sites has its cloudlet up and >= 1 instance up.
// This generalizes both Eq. 2 (one site, N replicas) and Eq. 10 (many
// sites, 1 replica each). The Markov fault schedules of recovery_faults.hpp
// sample exactly this model over time.
#pragma once

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "workload/request.hpp"

namespace vnfr::sim {

/// Exact availability of `placement` for `request`:
/// 1 - prod_sites (1 - r(c) * (1 - (1 - r(f))^replicas)).
double analytic_availability(const core::Instance& instance,
                             const workload::Request& request,
                             const core::Placement& placement);

}  // namespace vnfr::sim
