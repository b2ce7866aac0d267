#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

TheoryBounds compute_onsite_bounds(const Instance& instance) {
    instance.validate();
    TheoryBounds b;
    b.a_max = 0.0;
    b.a_min = std::numeric_limits<double>::infinity();
    bool any_pair = false;

    for (const workload::Request& r : instance.requests) {
        const double compute = instance.catalog.compute_units(r.vnf);
        const vnf::ReplicaRow& row = instance.catalog.replica_row(r.vnf);
        for (const edge::Cloudlet& c : instance.network.cloudlets()) {
            const auto n = vnf::onsite_replicas(row, c.reliability, r.requirement);
            if (!n) continue;
            any_pair = true;
            const double a = *n * compute;
            b.a_max = std::max(b.a_max, a);
            b.a_min = std::min(b.a_min, a);
        }
    }
    if (!any_pair) {
        throw std::invalid_argument(
            "compute_onsite_bounds: no feasible (request, cloudlet) pair");
    }

    b.pay_max = 0.0;
    b.pay_min = std::numeric_limits<double>::infinity();
    b.d_max = 0.0;
    b.d_min = std::numeric_limits<double>::infinity();
    for (const workload::Request& r : instance.requests) {
        b.pay_max = std::max(b.pay_max, r.payment);
        b.pay_min = std::min(b.pay_min, r.payment);
        b.d_max = std::max(b.d_max, static_cast<double>(r.duration));
        b.d_min = std::min(b.d_min, static_cast<double>(r.duration));
    }
    b.cap_max = 0.0;
    b.cap_min = std::numeric_limits<double>::infinity();
    for (const edge::Cloudlet& c : instance.network.cloudlets()) {
        b.cap_max = std::max(b.cap_max, c.capacity);
        b.cap_min = std::min(b.cap_min, c.capacity);
    }

    b.competitive_ratio = 1.0 + b.a_max;

    const double inner = b.pay_max * b.d_max / b.pay_min *
                             (1.0 / b.a_min + b.a_max / (b.a_min * b.cap_min) +
                              b.a_max / (b.d_min * b.cap_min)) +
                         1.0;
    // Lemma 8 log arguments: both must exceed 1 for the bound to be
    // positive and finite (a_min > 0, cap_max > 0 imply the first).
    VNFR_CHECK(b.a_min > 0.0 && b.cap_max > 0.0, "Lemma 8 needs a_min, cap_max > 0");
    VNFR_CHECK(inner > 1.0, "Lemma 8 inner log argument must exceed 1, got ", inner);
    b.absolute_usage_bound =
        b.a_max / std::log2(1.0 + b.a_min / b.cap_max) * std::log2(inner);
    VNFR_CHECK_FINITE(b.absolute_usage_bound);
    b.xi = b.absolute_usage_bound / b.cap_min;
    VNFR_CHECK(b.xi > 0.0, "Lemma 8 violation factor xi");
    return b;
}

}  // namespace vnfr::core
