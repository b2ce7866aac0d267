#include "core/verify.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/math.hpp"

namespace vnfr::core {

namespace {

std::string describe_request(const Instance& instance, std::size_t i) {
    std::ostringstream os;
    os << "request " << instance.requests[i].id.value << " (index " << i << ")";
    return os.str();
}

}  // namespace

double placement_availability(const Instance& instance, const workload::Request& request,
                              const Placement& placement) {
    const double vnf_rel = VNFR_CHECK_PROB(instance.catalog.reliability(request.vnf));
    double log_all_fail = 0.0;
    for (const Site& site : placement.sites) {
        if (site.replicas <= 0)
            throw std::invalid_argument("placement_availability: non-positive replicas");
        const double site_ok = VNFR_CHECK_PROB(
            instance.network.cloudlet(site.cloudlet).reliability *
            common::at_least_one(vnf_rel, site.replicas));
        log_all_fail += common::log1m(site_ok);
    }
    if (placement.sites.empty()) return 0.0;
    return VNFR_CHECK_PROB(common::one_minus_exp(log_all_fail));
}

VerificationReport verify_schedule(const Instance& instance,
                                   const std::vector<Decision>& decisions,
                                   double capacity_tolerance) {
    instance.validate();
    VerificationReport report;
    if (decisions.size() != instance.requests.size()) {
        report.violations.push_back(
            {ScheduleViolation::Kind::kDecisionCountMismatch,
             "expected " + std::to_string(instance.requests.size()) + " decisions, got " +
                 std::to_string(decisions.size())});
        return report;
    }

    const std::size_t m = instance.network.cloudlet_count();
    // Recompute per-(cloudlet, slot) usage from scratch.
    std::vector<std::vector<double>> usage(
        m, std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0));

    for (std::size_t i = 0; i < decisions.size(); ++i) {
        const Decision& d = decisions[i];
        if (!d.admitted) continue;
        const workload::Request& r = instance.requests[i];
        ++report.admitted;
        report.revenue += r.payment;

        if (d.placement.sites.empty()) {
            report.violations.push_back(
                {ScheduleViolation::Kind::kEmptyPlacement, describe_request(instance, i)});
            continue;
        }
        std::set<std::int64_t> seen;
        bool sites_ok = true;
        for (const Site& s : d.placement.sites) {
            if (!s.cloudlet.valid() || s.cloudlet.index() >= m) {
                report.violations.push_back({ScheduleViolation::Kind::kUnknownCloudlet,
                                             describe_request(instance, i)});
                sites_ok = false;
                continue;
            }
            if (s.replicas < 1) {
                report.violations.push_back({ScheduleViolation::Kind::kNonPositiveReplicas,
                                             describe_request(instance, i)});
                sites_ok = false;
            }
            if (!seen.insert(s.cloudlet.value).second) {
                report.violations.push_back({ScheduleViolation::Kind::kDuplicateSite,
                                             describe_request(instance, i)});
                sites_ok = false;
            }
        }
        if (!sites_ok) continue;

        const double compute = instance.catalog.compute_units(r.vnf);
        for (const Site& s : d.placement.sites) {
            for (TimeSlot t = r.arrival; t < r.end(); ++t) {
                usage[s.cloudlet.index()][static_cast<std::size_t>(t)] +=
                    s.replicas * compute;
            }
        }

        // Sites were screened above: non-empty, known cloudlets, replicas >= 1.
        const double availability = placement_availability(instance, r, d.placement);
        if (availability < r.requirement - 1e-9) {
            std::ostringstream os;
            os << describe_request(instance, i) << ": availability " << availability
               << " < requirement " << r.requirement;
            report.violations.push_back(
                {ScheduleViolation::Kind::kReliabilityNotMet, os.str()});
        }
    }

    for (std::size_t j = 0; j < m; ++j) {
        const double cap =
            instance.network.cloudlet(CloudletId{static_cast<std::int64_t>(j)}).capacity;
        for (TimeSlot t = 0; t < instance.horizon; ++t) {
            const double used = usage[j][static_cast<std::size_t>(t)];
            report.max_load_factor = std::max(report.max_load_factor, used / cap);
            if (used > cap * capacity_tolerance + 1e-9) {
                std::ostringstream os;
                os << "cloudlet " << j << " slot " << t << ": usage " << used
                   << " > capacity " << cap << " * tolerance " << capacity_tolerance;
                report.violations.push_back(
                    {ScheduleViolation::Kind::kCapacityExceeded, os.str()});
            }
        }
    }
    return report;
}

}  // namespace vnfr::core
