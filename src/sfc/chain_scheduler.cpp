#include "sfc/chain_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/math.hpp"
#include "sfc/chain_reliability.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::sfc {

namespace {

/// Per-chain helper: reliabilities and compute demands of the functions.
struct ChainProfile {
    std::vector<double> rels;
    std::vector<double> computes;
};

ChainProfile profile(const core::Instance& instance, const ChainRequest& request) {
    if (request.functions.empty())
        throw std::invalid_argument("chain scheduler: empty chain");
    ChainProfile p;
    p.rels.reserve(request.functions.size());
    p.computes.reserve(request.functions.size());
    for (const VnfTypeId f : request.functions) {
        p.rels.push_back(instance.catalog.reliability(f));
        p.computes.push_back(instance.catalog.compute_units(f));
    }
    return p;
}

double estimate_typical_chain_demand(const core::Instance& instance) {
    // A rough catalog-level scale: mean 2-function chain with the on-site
    // auto-scale logic of Algorithm 1. Keeps pricing granularity sane.
    double total = 0.0;
    std::size_t pairs = 0;
    for (const vnf::VnfType& type : instance.catalog.types()) {
        const vnf::ReplicaRow& row = instance.catalog.replica_row(type.id);
        for (const edge::Cloudlet& c : instance.network.cloudlets()) {
            const double representative_r = std::min(0.95, c.reliability * 0.97);
            const auto n = vnf::onsite_replicas(row, c.reliability, representative_r);
            if (!n) continue;
            total += 2.0 * *n * type.compute_units;
            ++pairs;
        }
    }
    return pairs == 0 ? 1.0 : std::max(1.0, total / static_cast<double>(pairs));
}

}  // namespace

ChainScheduleResult run_chains(const core::Instance& instance,
                               const std::vector<ChainRequest>& requests,
                               ChainScheduler& scheduler) {
    ChainScheduleResult result;
    result.decisions.reserve(requests.size());
    TimeSlot prev = 0;
    for (const ChainRequest& r : requests) {
        if (r.arrival < prev)
            throw std::invalid_argument("run_chains: requests not in arrival order");
        prev = r.arrival;
        if (!r.fits_horizon(instance.horizon))
            throw std::invalid_argument("run_chains: request outside horizon");
        ChainDecision d = scheduler.decide(r);
        if (d.admitted) {
            result.revenue += r.payment;
            ++result.admitted;
        }
        result.decisions.push_back(std::move(d));
    }
    const edge::ResourceLedger& ledger = scheduler.ledger();
    for (std::size_t j = 0; j < ledger.cloudlet_count(); ++j) {
        const CloudletId c{static_cast<std::int64_t>(j)};
        for (TimeSlot t = 0; t < ledger.horizon(); ++t) {
            result.max_load_factor =
                std::max(result.max_load_factor, ledger.usage(c, t) / ledger.capacity(c));
        }
    }
    return result;
}

ChainPrimalDual::ChainPrimalDual(const core::Instance& instance,
                                 ChainPrimalDualConfig config)
    : instance_(instance),
      ledger_(instance.network.capacities(), instance.horizon,
              edge::CapacityPolicy::kEnforce),
      lambda_(instance.network.cloudlet_count(),
              std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)) {
    if (config.dual_capacity_scale < 0.0)
        throw std::invalid_argument("ChainPrimalDual: negative dual_capacity_scale");
    dual_scale_ = config.dual_capacity_scale > 0.0 ? config.dual_capacity_scale
                                                   : estimate_typical_chain_demand(instance);
}

double ChainPrimalDual::lambda(CloudletId j, TimeSlot t) const {
    return lambda_.at(j.index()).at(static_cast<std::size_t>(t));
}

ChainDecision ChainPrimalDual::decide(const ChainRequest& request) {
    const ChainProfile p = profile(instance_, request);

    CloudletId best;
    std::vector<int> best_replicas;
    double best_price = std::numeric_limits<double>::infinity();
    double best_demand = std::numeric_limits<double>::infinity();
    for (const edge::Cloudlet& c : instance_.network.cloudlets()) {
        const auto replicas =
            min_chain_replicas(c.reliability, p.rels, p.computes, request.requirement);
        if (!replicas) continue;
        const double demand = chain_compute(p.computes, *replicas);
        if (!ledger_.fits(c.id, request.arrival, request.end(), demand)) continue;
        double lambda_sum = 0.0;
        const auto& lam = lambda_[c.id.index()];
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            lambda_sum += lam[static_cast<std::size_t>(t)];
        }
        const double price = demand * lambda_sum;
        if (price < best_price - 1e-12 ||
            (price < best_price + 1e-12 && demand < best_demand)) {
            best_price = std::min(price, best_price);
            best = c.id;
            best_replicas = *replicas;
            best_demand = demand;
        }
    }
    if (!best.valid() || request.payment - best_price <= 0.0) return ChainDecision{};

    const double demand = chain_compute(p.computes, best_replicas);
    ledger_.reserve(best, request.arrival, request.end(), demand);

    const double cap = instance_.network.cloudlet(best).capacity * dual_scale_;
    const double mult = 1.0 + demand / cap;
    const double add = demand * request.payment / (request.duration * cap);
    auto& lam = lambda_[best.index()];
    for (TimeSlot t = request.arrival; t < request.end(); ++t) {
        auto& value = lam[static_cast<std::size_t>(t)];
        value = value * mult + add;
    }

    ChainDecision d;
    d.admitted = true;
    d.placement = ChainPlacement{request.id, best, std::move(best_replicas)};
    return d;
}

ChainGreedy::ChainGreedy(const core::Instance& instance)
    : instance_(instance),
      ledger_(instance.network.capacities(), instance.horizon,
              edge::CapacityPolicy::kEnforce) {
    for (const edge::Cloudlet& c : instance.network.cloudlets()) {
        by_reliability_.push_back(c.id);
    }
    std::sort(by_reliability_.begin(), by_reliability_.end(),
              [&](CloudletId a, CloudletId b) {
                  const double ra = instance.network.cloudlet(a).reliability;
                  const double rb = instance.network.cloudlet(b).reliability;
                  if (!common::almost_equal(ra, rb)) return ra > rb;
                  return a < b;
              });
}

ChainDecision ChainGreedy::decide(const ChainRequest& request) {
    const ChainProfile p = profile(instance_, request);
    for (const CloudletId j : by_reliability_) {
        const auto replicas =
            min_chain_replicas(instance_.network.cloudlet(j).reliability, p.rels,
                               p.computes, request.requirement);
        if (!replicas) continue;
        const double demand = chain_compute(p.computes, *replicas);
        if (!ledger_.fits(j, request.arrival, request.end(), demand)) continue;
        ledger_.reserve(j, request.arrival, request.end(), demand);
        ChainDecision d;
        d.admitted = true;
        d.placement = ChainPlacement{request.id, j, *replicas};
        return d;
    }
    return ChainDecision{};
}

}  // namespace vnfr::sfc
