#include "core/hybrid_primal_dual.hpp"

#include <limits>
#include <utility>

#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"

namespace vnfr::core {

namespace {

RejectReason combined_reject_reason(RejectReason onsite, RejectReason offsite) {
    if (onsite == RejectReason::kInfeasibleRequirement &&
        offsite == RejectReason::kInfeasibleRequirement) {
        return RejectReason::kInfeasibleRequirement;
    }
    // kNone here means the scheme found a placement that lost on price.
    for (const RejectReason reason : {onsite, offsite}) {
        if (reason == RejectReason::kNone || reason == RejectReason::kPricedOut) {
            return RejectReason::kPricedOut;
        }
    }
    return RejectReason::kNoCapacity;
}

}  // namespace

HybridPrimalDual::HybridPrimalDual(const Instance& instance)
    : instance_(instance),
      log_failure_(instance.catalog, instance.network.reliabilities()),
      ledger_(instance.network.capacities(), instance.horizon,
              edge::CapacityPolicy::kEnforce),
      onsite_scale_(onsite_typical_demand(instance)),
      offsite_scale_(offsite_typical_demand(instance, log_failure_)),
      lambda_onsite_(instance.network.cloudlet_count(),
                     std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)),
      lambda_offsite_(instance.network.cloudlet_count(),
                      std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)) {}

Decision HybridPrimalDual::decide(const workload::Request& request) {
    const OnsiteQuote onsite =
        quote_onsite(instance_, lambda_onsite_, ledger_, /*enforce_capacity=*/true, request);
    OffsiteQuote offsite =
        quote_offsite(instance_, log_failure_, lambda_offsite_, ledger_, request);

    // Profit of each scheme's placement at its own duals; -inf without one.
    constexpr double kNoPlacement = -std::numeric_limits<double>::infinity();
    const double profit_on =
        onsite.cloudlet.valid() ? request.payment - onsite.price : kNoPlacement;
    double profit_off = kNoPlacement;
    if (!offsite.sites.empty()) {
        const double compute = instance_.catalog.compute_units(request.vnf);
        double price = 0.0;
        for (const Site& site : offsite.sites) {
            const auto& lam = lambda_offsite_[site.cloudlet.index()];
            for (TimeSlot t = request.arrival; t < request.end(); ++t) {
                price += compute * lam[static_cast<std::size_t>(t)];
            }
        }
        profit_off = request.payment - price;
    }

    Decision d;
    if (profit_on <= 0.0 && profit_off <= 0.0) {
        d.reject_reason = combined_reject_reason(onsite.verdict, offsite.verdict);
        return d;
    }
    d.admitted = true;
    if (profit_on >= profit_off) {
        commit_onsite(instance_, lambda_onsite_, ledger_, onsite_scale_, request, onsite);
        ++onsite_admissions_;
        d.placement = Placement{request.id, {Site{onsite.cloudlet, onsite.replicas}}};
    } else {
        commit_offsite(instance_, log_failure_, lambda_offsite_, ledger_, offsite_scale_,
                       request, offsite);
        ++offsite_admissions_;
        d.placement = Placement{request.id, std::move(offsite.sites)};
    }
    return d;
}

}  // namespace vnfr::core
