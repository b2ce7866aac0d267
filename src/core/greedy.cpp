#include "core/greedy.hpp"

#include <algorithm>
#include <span>

#include "common/contracts.hpp"
#include "common/math.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

namespace {

std::vector<CloudletId> cloudlets_by_reliability(const Instance& instance) {
    std::vector<CloudletId> order;
    order.reserve(instance.network.cloudlet_count());
    for (const edge::Cloudlet& c : instance.network.cloudlets()) order.push_back(c.id);
    std::sort(order.begin(), order.end(), [&](CloudletId a, CloudletId b) {
        const double ra = instance.network.cloudlet(a).reliability;
        const double rb = instance.network.cloudlet(b).reliability;
        if (!common::almost_equal(ra, rb)) return ra > rb;
        return a < b;
    });
    return order;
}

}  // namespace

OnsiteGreedy::OnsiteGreedy(const Instance& instance)
    : instance_(instance),
      ledger_(instance.network.capacities(), instance.horizon,
              edge::CapacityPolicy::kEnforce),
      by_reliability_(cloudlets_by_reliability(instance)) {}

Decision OnsiteGreedy::decide(const workload::Request& request) {
    const double compute = instance_.catalog.compute_units(request.vnf);
    const vnf::ReplicaRow& row = instance_.catalog.replica_row(request.vnf);
    bool any_reliable = false;
    for (const CloudletId j : by_reliability_) {
        const auto n = vnf::onsite_replicas(row, instance_.network.cloudlet(j).reliability,
                                            request.requirement);
        if (!n) continue;
        VNFR_CHECK(*n >= 1, "Eq. (3) replica count for request ", request.id.value,
                   " on cloudlet ", j.value);
        any_reliable = true;
        const double demand = *n * compute;
        if (!ledger_.fits(j, request.arrival, request.end(), demand)) continue;
        ledger_.reserve(j, request.arrival, request.end(), demand);
        Decision d;
        d.admitted = true;
        d.placement = Placement{request.id, {Site{j, *n}}};
        return d;
    }
    Decision rejected;
    rejected.reject_reason = any_reliable ? RejectReason::kNoCapacity
                                          : RejectReason::kInfeasibleRequirement;
    return rejected;
}

OffsiteGreedy::OffsiteGreedy(const Instance& instance)
    : instance_(instance),
      log_failure_(instance.catalog, instance.network.reliabilities()),
      ledger_(instance.network.capacities(), instance.horizon,
              edge::CapacityPolicy::kEnforce),
      by_reliability_(cloudlets_by_reliability(instance)) {}

Decision OffsiteGreedy::decide(const workload::Request& request) {
    const double compute = instance_.catalog.compute_units(request.vnf);
    const std::span<const double> logs = log_failure_.row(request.vnf);
    const double log_target = common::log1m(request.requirement);

    std::vector<CloudletId> selected;
    double log_fail = 0.0;
    double log_fail_everything = 0.0;
    bool met = false;
    for (const CloudletId j : by_reliability_) {
        const double pair_fail = logs[j.index()];
        log_fail_everything += pair_fail;
        if (met || !ledger_.fits(j, request.arrival, request.end(), compute)) continue;
        selected.push_back(j);
        log_fail += pair_fail;
        if (log_fail <= log_target) met = true;
    }
    if (!met) {
        Decision rejected;
        rejected.reject_reason = log_fail_everything <= log_target
                                     ? RejectReason::kNoCapacity
                                     : RejectReason::kInfeasibleRequirement;
        return rejected;
    }

    Placement placement{request.id, {}};
    placement.sites.reserve(selected.size());
    for (const CloudletId j : selected) {
        ledger_.reserve(j, request.arrival, request.end(), compute);
        placement.sites.push_back(Site{j, 1});
    }
    Decision d;
    d.admitted = true;
    d.placement = std::move(placement);
    return d;
}

}  // namespace vnfr::core
