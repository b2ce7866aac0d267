#include "core/offsite_primal_dual.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/math.hpp"
#include "core/dual_limits.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

namespace {

/// w_j = sum_t lambda_{tj} / -ln(1 - r_f r_c) over the request's window of
/// cloudlet c's dual row `lam`.
double normalized_price_of(const std::vector<double>& lam, const workload::Request& request,
                           [[maybe_unused]] CloudletId c, double log_pair) {
    double lambda_sum = 0.0;
    for (TimeSlot t = request.arrival; t < request.end(); ++t) {
        VNFR_DCHECK(lam[static_cast<std::size_t>(t)] >= 0.0, "dual price lambda_",
                    c.value, "(", t, ") went negative");
        lambda_sum += lam[static_cast<std::size_t>(t)];
    }
    return VNFR_CHECK_FINITE(lambda_sum / -log_pair);
}

/// The table's entries for `request`'s type, one per cloudlet of `instance`.
std::span<const double> log_pairs(const Instance& instance,
                                  const vnf::OffsiteLogTable& log_failure,
                                  const workload::Request& request) {
    VNFR_CHECK(log_failure.cloudlet_count() == instance.network.cloudlet_count(),
               "off-site log-failure table built for ", log_failure.cloudlet_count(),
               " cloudlets, instance has ", instance.network.cloudlet_count());
    return log_failure.row(request.vnf);
}

}  // namespace

double offsite_typical_demand(const Instance& instance,
                              const vnf::OffsiteLogTable& log_failure) {
    double total = 0.0;
    std::size_t pairs = 0;
    for (const vnf::VnfType& type : instance.catalog.types()) {
        for (const double log_pair : log_failure.row(type.id)) {
            const double representative_r = 0.95;
            const double sites = common::log1m(representative_r) / log_pair;
            total += std::max(1.0, sites) * type.compute_units;
            ++pairs;
        }
    }
    return pairs == 0 ? 1.0 : std::max(1.0, total / static_cast<double>(pairs));
}

OffsiteQuote quote_offsite(const Instance& instance, const vnf::OffsiteLogTable& log_failure,
                           const DualTable& lambda, const edge::ResourceLedger& ledger,
                           const workload::Request& request) {
    const double compute = instance.catalog.compute_units(request.vnf);
    const std::span<const double> logs = log_pairs(instance, log_failure, request);
    const double log_target = common::log1m(request.requirement);  // ln(1 - R_i)
    VNFR_CHECK(log_target < 0.0, "requirement R_i must be positive for request ",
               request.id.value);
    OffsiteQuote quote;

    // Step 1: price every cloudlet and prune the unaffordable ones.
    struct Candidate {
        CloudletId cloudlet;
        double price;     ///< w_j
        double log_pair;  ///< ln(1 - r_f r_c)
    };
    // Classification baseline: can the full cloudlet set meet R at all?
    double log_fail_everything = 0.0;
    std::vector<Candidate> candidates;
    candidates.reserve(instance.network.cloudlet_count());
    for (const edge::Cloudlet& c : instance.network.cloudlets()) {
        const double log_pair = logs[c.id.index()];
        log_fail_everything += log_pair;
        const double w = normalized_price_of(lambda[c.id.index()], request, c.id, log_pair);
        // Line 5: pay_i + ln(1-R_i) * c(f_i) * w_j <= 0 -> skip cloudlet.
        if (request.payment + log_target * compute * w <= 0.0) continue;
        candidates.push_back({c.id, w, log_pair});
    }
    const bool reachable = log_fail_everything <= log_target;
    if (candidates.empty()) {
        quote.verdict = reachable ? RejectReason::kPricedOut
                                  : RejectReason::kInfeasibleRequirement;
        return quote;
    }

    // Step 2: cheapest-first greedy selection under residual capacity.
    // Price ties (whole windows still unpriced) are broken toward the more
    // reliable cloudlet, which needs the fewest sites to reach R_i.
    std::sort(candidates.begin(), candidates.end(),
              [&](const Candidate& a, const Candidate& b) {
                  if (a.price < b.price - 1e-12 || b.price < a.price - 1e-12) {
                      return a.price < b.price;
                  }
                  const double ra = instance.network.cloudlet(a.cloudlet).reliability;
                  const double rb = instance.network.cloudlet(b.cloudlet).reliability;
                  if (!common::almost_equal(ra, rb)) return ra > rb;
                  return a.cloudlet < b.cloudlet;
              });

    double log_fail = 0.0;  // sum of ln(1 - r_f r_c) over S(i)
    for (const Candidate& cand : candidates) {
        if (!ledger.fits(cand.cloudlet, request.arrival, request.end(), compute)) continue;
        quote.sites.push_back(Site{cand.cloudlet, 1});
        log_fail += cand.log_pair;
        if (log_fail <= log_target) return quote;
    }

    // Line 22: reject. Classify: if even the full price-feasible candidate
    // set ignoring capacity cannot reach R, the pruning priced the request
    // out; otherwise capacity blocked a sufficient subset.
    quote.sites.clear();
    if (!reachable) {
        quote.verdict = RejectReason::kInfeasibleRequirement;
    } else {
        double log_fail_candidates = 0.0;
        for (const Candidate& cand : candidates) log_fail_candidates += cand.log_pair;
        quote.verdict = log_fail_candidates <= log_target ? RejectReason::kNoCapacity
                                                          : RejectReason::kPricedOut;
    }
    return quote;
}

void commit_offsite(const Instance& instance, const vnf::OffsiteLogTable& log_failure,
                    DualTable& lambda, edge::ResourceLedger& ledger, double dual_scale,
                    const workload::Request& request, const OffsiteQuote& quote) {
    VNFR_CHECK(quote.verdict == RejectReason::kNone && !quote.sites.empty(),
               "commit_offsite needs an admissible quote for request ", request.id.value);
    const double compute = instance.catalog.compute_units(request.vnf);
    const std::span<const double> logs = log_pairs(instance, log_failure, request);
    const double log_target = common::log1m(request.requirement);
    for (const Site& site : quote.sites) {
        ledger.reserve(site.cloudlet, request.arrival, request.end(), compute);

        const edge::Cloudlet& cloudlet = instance.network.cloudlet(site.cloudlet);
        // Eq. 67 against the (possibly scaled) capacity;
        // ln(1-R)/ln(1-r_f r_c) > 0, so lambda grows monotonically.
        const double ratio = log_target / logs[site.cloudlet.index()];
        VNFR_CHECK(ratio > 0.0, "Eq. (67) growth ratio for cloudlet ", cloudlet.id.value);
        const double cap = cloudlet.capacity * dual_scale;
        VNFR_CHECK(cap > 0.0, "dual update capacity for cloudlet ", cloudlet.id.value);
        bump_duals(lambda[site.cloudlet.index()], request.arrival, request.end(),
                   1.0 + ratio * compute / cap,
                   ratio * compute * request.payment / (request.duration * cap));
    }
}

OffsitePrimalDual::OffsitePrimalDual(const Instance& instance,
                                     OffsitePrimalDualConfig config)
    : instance_(instance),
      log_failure_(instance.catalog, instance.network.reliabilities()),
      ledger_(instance.network.capacities(), instance.horizon,
              edge::CapacityPolicy::kEnforce),
      lambda_(instance.network.cloudlet_count(),
              std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)) {
    if (config.dual_capacity_scale < 0.0)
        throw std::invalid_argument("OffsitePrimalDual: negative dual_capacity_scale");
    dual_scale_ = config.dual_capacity_scale > 0.0
                      ? config.dual_capacity_scale
                      : offsite_typical_demand(instance, log_failure_);
}

SchedulerState OffsitePrimalDual::export_state() const {
    return SchedulerState{lambda_, ledger_.usage_table()};
}

void OffsitePrimalDual::import_state(const SchedulerState& state) {
    validate_scheduler_state(state, instance_.network.cloudlet_count(),
                             instance_.horizon);
    ledger_.restore_usage(state.usage);
    lambda_ = state.lambda;
}

double OffsitePrimalDual::lambda(CloudletId j, TimeSlot t) const {
    return lambda_.at(j.index()).at(static_cast<std::size_t>(t));
}

double OffsitePrimalDual::normalized_price(const workload::Request& request,
                                           CloudletId j) const {
    const edge::Cloudlet& c = instance_.network.cloudlet(j);  // validates j
    return normalized_price_of(lambda_[j.index()], request, c.id,
                               log_pairs(instance_, log_failure_, request)[j.index()]);
}

Decision OffsitePrimalDual::decide(const workload::Request& request) {
    OffsiteQuote quote = quote_offsite(instance_, log_failure_, lambda_, ledger_, request);
    Decision d;
    if (quote.verdict != RejectReason::kNone) {
        d.reject_reason = quote.verdict;
        return d;
    }
    commit_offsite(instance_, log_failure_, lambda_, ledger_, dual_scale_, request, quote);
    d.admitted = true;
    d.placement = Placement{request.id, std::move(quote.sites)};
    return d;
}

}  // namespace vnfr::core
