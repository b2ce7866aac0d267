#include "core/onsite_primal_dual.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"
#include "core/dual_limits.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

double onsite_typical_demand(const Instance& instance) {
    double total = 0.0;
    std::size_t pairs = 0;
    for (const vnf::VnfType& type : instance.catalog.types()) {
        const vnf::ReplicaRow& row = instance.catalog.replica_row(type.id);
        for (const edge::Cloudlet& c : instance.network.cloudlets()) {
            const double representative_r = std::min(0.95, c.reliability * 0.97);
            const auto n = vnf::onsite_replicas(row, c.reliability, representative_r);
            if (!n) continue;
            total += *n * type.compute_units;
            ++pairs;
        }
    }
    return pairs == 0 ? 1.0 : std::max(1.0, total / static_cast<double>(pairs));
}

OnsiteQuote quote_onsite(const Instance& instance, const DualTable& lambda,
                         const edge::ResourceLedger& ledger, bool enforce_capacity,
                         const workload::Request& request) {
    const double compute = instance.catalog.compute_units(request.vnf);
    const vnf::ReplicaRow& row = instance.catalog.replica_row(request.vnf);

    // Arg-min of the dual price over feasible cloudlets (lines 3-7). Price
    // ties (ubiquitous early on, when whole windows still have lambda = 0)
    // are broken toward the smaller resource demand N_ij * c(f_i): any
    // arg-min satisfies the analysis, and the cheaper one wastes the least
    // capacity.
    OnsiteQuote quote;
    quote.price = std::numeric_limits<double>::infinity();
    double best_demand = std::numeric_limits<double>::infinity();
    bool any_reliable = false;
    for (const edge::Cloudlet& c : instance.network.cloudlets()) {
        const std::optional<int> n =
            vnf::onsite_replicas(row, c.reliability, request.requirement);
        if (!n) continue;  // r(c_j) <= R_i: this cloudlet can never satisfy rho_i
        // Eq. (3) only yields a count when r(c_j) > R_i, and it is >= 1.
        VNFR_CHECK(*n >= 1, "Eq. (3) replica count for request ", request.id.value,
                   " on cloudlet ", c.id.value);
        VNFR_DCHECK(c.reliability > request.requirement,
                    "feasibility precondition r(c_j) > R_i violated");
        any_reliable = true;
        const double demand = *n * compute;
        if (enforce_capacity && !ledger.fits(c.id, request.arrival, request.end(), demand)) {
            continue;
        }
        double price = 0.0;
        const auto& lam = lambda[c.id.index()];
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            VNFR_DCHECK(lam[static_cast<std::size_t>(t)] >= 0.0, "dual price lambda_",
                        c.id.value, "(", t, ") went negative");
            price += demand * lam[static_cast<std::size_t>(t)];
        }
        VNFR_CHECK_FINITE(price);
        if (price < quote.price - 1e-12 ||
            (price < quote.price + 1e-12 && demand < best_demand)) {
            quote.price = std::min(quote.price, price);
            quote.cloudlet = c.id;
            quote.replicas = *n;
            best_demand = demand;
        }
    }

    // Admission test (line 8): pay_i must exceed the cheapest dual price.
    if (!any_reliable) {
        quote.verdict = RejectReason::kInfeasibleRequirement;
    } else if (!quote.cloudlet.valid()) {
        quote.verdict = RejectReason::kNoCapacity;
    } else if (request.payment - quote.price <= 0.0) {
        quote.verdict = RejectReason::kPricedOut;
    }
    return quote;
}

void commit_onsite(const Instance& instance, DualTable& lambda, edge::ResourceLedger& ledger,
                   double dual_scale, const workload::Request& request,
                   const OnsiteQuote& quote) {
    VNFR_CHECK(quote.verdict == RejectReason::kNone && request.payment - quote.price > 0.0,
               "admitted request must have positive primal increment (Eq. 33)");
    const double demand = quote.replicas * instance.catalog.compute_units(request.vnf);
    ledger.reserve(quote.cloudlet, request.arrival, request.end(), demand);

    // Dual update (Eq. 34) on the chosen cloudlet's window, against the
    // (possibly scaled) capacity.
    const double cap = instance.network.cloudlet(quote.cloudlet).capacity * dual_scale;
    VNFR_CHECK(cap > 0.0, "dual update capacity for cloudlet ", quote.cloudlet.value);
    bump_duals(lambda[quote.cloudlet.index()], request.arrival, request.end(),
               1.0 + demand / cap, demand * request.payment / (request.duration * cap));
}

OnsitePrimalDual::OnsitePrimalDual(const Instance& instance, OnsitePrimalDualConfig config)
    : instance_(instance),
      config_(config),
      ledger_(instance.network.capacities(), instance.horizon,
              config.enforce_capacity ? edge::CapacityPolicy::kEnforce
                                      : edge::CapacityPolicy::kRecord),
      lambda_(instance.network.cloudlet_count(),
              std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)) {
    if (config_.dual_capacity_scale < 0.0)
        throw std::invalid_argument("OnsitePrimalDual: negative dual_capacity_scale");
    if (config_.enforce_capacity) {
        dual_scale_ = config_.dual_capacity_scale > 0.0 ? config_.dual_capacity_scale
                                                        : onsite_typical_demand(instance);
    } else {
        dual_scale_ = 1.0;  // Theorem 1 analyses the literal Eq. 34
    }
}

SchedulerState OnsitePrimalDual::export_state() const {
    return SchedulerState{lambda_, ledger_.usage_table()};
}

void OnsitePrimalDual::import_state(const SchedulerState& state) {
    validate_scheduler_state(state, instance_.network.cloudlet_count(),
                             instance_.horizon);
    ledger_.restore_usage(state.usage);
    lambda_ = state.lambda;
    deltas_.clear();
}

std::string_view OnsitePrimalDual::name() const {
    return config_.enforce_capacity ? "onsite-primal-dual" : "onsite-primal-dual-pure";
}

double OnsitePrimalDual::lambda(CloudletId j, TimeSlot t) const {
    return lambda_.at(j.index()).at(static_cast<std::size_t>(t));
}

std::optional<double> OnsitePrimalDual::dual_price(const workload::Request& request,
                                                   CloudletId j) const {
    const std::optional<int> n = vnf::onsite_replicas(
        instance_.catalog.replica_row(request.vnf), instance_.network.cloudlet(j).reliability,
        request.requirement);
    if (!n) return std::nullopt;
    const double demand = *n * instance_.catalog.compute_units(request.vnf);
    double price = 0.0;
    const auto& lam = lambda_[j.index()];
    for (TimeSlot t = request.arrival; t < request.end(); ++t) {
        price += demand * lam[static_cast<std::size_t>(t)];
    }
    return price;
}

Decision OnsitePrimalDual::decide(const workload::Request& request) {
    const OnsiteQuote quote =
        quote_onsite(instance_, lambda_, ledger_, config_.enforce_capacity, request);
    Decision d;
    if (quote.verdict != RejectReason::kNone) {
        if (config_.track_deltas) deltas_.push_back(0.0);
        d.reject_reason = quote.verdict;
        return d;
    }
    commit_onsite(instance_, lambda_, ledger_, dual_scale_, request, quote);
    if (config_.track_deltas) deltas_.push_back(request.payment - quote.price);  // Eq. 33
    d.admitted = true;
    d.placement = Placement{request.id, {Site{quote.cloudlet, quote.replicas}}};
    return d;
}

}  // namespace vnfr::core
