#include "sim/failure_model.hpp"

#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/math.hpp"

namespace vnfr::sim {

double analytic_availability(const core::Instance& instance,
                             const workload::Request& request,
                             const core::Placement& placement) {
    const double vnf_rel = VNFR_CHECK_PROB(instance.catalog.reliability(request.vnf));
    double log_all_fail = 0.0;
    for (const core::Site& site : placement.sites) {
        if (site.replicas <= 0)
            throw std::invalid_argument("analytic_availability: non-positive replicas");
        const double site_ok = VNFR_CHECK_PROB(
            instance.network.cloudlet(site.cloudlet).reliability *
            common::at_least_one(vnf_rel, site.replicas));
        log_all_fail += common::log1m(site_ok);
    }
    if (placement.sites.empty()) return 0.0;
    return VNFR_CHECK_PROB(common::one_minus_exp(log_all_fail));
}

}  // namespace vnfr::sim
