#include "core/exhaustive.hpp"

#include <optional>
#include <span>
#include <stdexcept>

#include "common/math.hpp"
#include "edge/resource_ledger.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

namespace {

/// Suffix sums of payments: an upper bound on revenue still reachable from
/// request i onward, used to prune the search.
std::vector<double> suffix_payments(const Instance& instance) {
    std::vector<double> suffix(instance.requests.size() + 1, 0.0);
    for (std::size_t i = instance.requests.size(); i-- > 0;) {
        suffix[i] = suffix[i + 1] + instance.requests[i].payment;
    }
    return suffix;
}

struct SearchState {
    const Instance& instance;
    edge::ResourceLedger ledger;
    std::vector<double> suffix;
    double best_revenue{0};
    std::vector<Decision> current;
    std::vector<Decision> best;
};

void search_onsite(SearchState& st, std::size_t i, double revenue) {
    if (i == st.instance.requests.size()) {
        if (revenue > st.best_revenue) {
            st.best_revenue = revenue;
            st.best = st.current;
        }
        return;
    }
    if (revenue + st.suffix[i] <= st.best_revenue) return;  // bound

    const workload::Request& r = st.instance.requests[i];
    const double compute = st.instance.catalog.compute_units(r.vnf);
    const vnf::ReplicaRow& row = st.instance.catalog.replica_row(r.vnf);

    // Option A: admit on some cloudlet.
    for (const edge::Cloudlet& c : st.instance.network.cloudlets()) {
        const auto n = vnf::onsite_replicas(row, c.reliability, r.requirement);
        if (!n) continue;
        const double demand = *n * compute;
        if (!st.ledger.fits(c.id, r.arrival, r.end(), demand)) continue;
        st.ledger.reserve(c.id, r.arrival, r.end(), demand);
        st.current[i] = Decision{true, RejectReason::kNone, Placement{r.id, {Site{c.id, *n}}}};
        search_onsite(st, i + 1, revenue + r.payment);
        st.ledger.release(c.id, r.arrival, r.end(), demand);
    }
    // Option B: reject.
    st.current[i] = Decision{};
    search_onsite(st, i + 1, revenue);
}

void search_offsite(SearchState& st, const std::vector<std::vector<unsigned>>& masks,
                    std::size_t i, double revenue) {
    if (i == st.instance.requests.size()) {
        if (revenue > st.best_revenue) {
            st.best_revenue = revenue;
            st.best = st.current;
        }
        return;
    }
    if (revenue + st.suffix[i] <= st.best_revenue) return;

    const workload::Request& r = st.instance.requests[i];
    const double compute = st.instance.catalog.compute_units(r.vnf);
    const std::size_t m = st.instance.network.cloudlet_count();

    for (const unsigned mask : masks[i]) {
        bool fits = true;
        for (std::size_t j = 0; j < m && fits; ++j) {
            if (mask & (1u << j)) {
                fits = st.ledger.fits(CloudletId{static_cast<std::int64_t>(j)}, r.arrival,
                                      r.end(), compute);
            }
        }
        if (!fits) continue;
        Placement placement{r.id, {}};
        for (std::size_t j = 0; j < m; ++j) {
            if (mask & (1u << j)) {
                const CloudletId c{static_cast<std::int64_t>(j)};
                st.ledger.reserve(c, r.arrival, r.end(), compute);
                placement.sites.push_back(Site{c, 1});
            }
        }
        st.current[i] = Decision{true, RejectReason::kNone, placement};
        search_offsite(st, masks, i + 1, revenue + r.payment);
        for (const Site& s : st.current[i].placement.sites) {
            st.ledger.release(s.cloudlet, r.arrival, r.end(), compute);
        }
    }
    st.current[i] = Decision{};
    search_offsite(st, masks, i + 1, revenue);
}

}  // namespace

ExhaustiveResult exhaustive_onsite(const Instance& instance) {
    instance.validate();
    if (instance.requests.size() > 12 || instance.network.cloudlet_count() > 6) {
        throw std::invalid_argument("exhaustive_onsite: instance too large");
    }
    SearchState st{instance,
                   edge::ResourceLedger(instance.network.capacities(), instance.horizon),
                   suffix_payments(instance),
                   0.0,
                   std::vector<Decision>(instance.requests.size()),
                   std::vector<Decision>(instance.requests.size())};
    search_onsite(st, 0, 0.0);
    return ExhaustiveResult{st.best_revenue, std::move(st.best)};
}

ExhaustiveResult exhaustive_offsite(const Instance& instance) {
    instance.validate();
    const std::size_t m = instance.network.cloudlet_count();
    if (instance.requests.size() > 10 || m > 6) {
        throw std::invalid_argument("exhaustive_offsite: instance too large");
    }
    // Pre-compute, per request, every cloudlet subset meeting R_i. Any
    // feasible admission can be reduced to such a subset without losing
    // revenue, so enumerating them is exact.
    const vnf::OffsiteLogTable log_failure(instance.catalog, instance.network.reliabilities());
    std::vector<std::vector<unsigned>> masks(instance.requests.size());
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        const workload::Request& r = instance.requests[i];
        const std::span<const double> logs = log_failure.row(r.vnf);
        const double log_target = common::log1m(r.requirement);
        for (unsigned mask = 1; mask < (1u << m); ++mask) {
            double log_fail = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
                if (mask & (1u << j)) log_fail += logs[j];
            }
            if (log_fail <= log_target) masks[i].push_back(mask);
        }
    }
    SearchState st{instance,
                   edge::ResourceLedger(instance.network.capacities(), instance.horizon),
                   suffix_payments(instance),
                   0.0,
                   std::vector<Decision>(instance.requests.size()),
                   std::vector<Decision>(instance.requests.size())};
    search_offsite(st, masks, 0, 0.0);
    return ExhaustiveResult{st.best_revenue, std::move(st.best)};
}

}  // namespace vnfr::core
