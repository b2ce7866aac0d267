// Independent verification of a finished schedule against the paper's
// constraints — used by tests, the CLI and downstream users to check any
// scheduler's output without trusting its internal ledger — and the one
// analytic availability formula every placement is judged by.
#pragma once

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "workload/request.hpp"

namespace vnfr::core {

/// Exact availability of `placement` for `request`:
/// 1 - prod_sites (1 - r(c) * (1 - (1 - r(f))^replicas)).
///
/// Failure model (the paper's reliability semantics): in any observation,
/// cloudlet c is up with probability r(c) and each VNF instance is
/// independently up with probability r(f); the request is served when at
/// least one site has its cloudlet up and >= 1 instance up. Eq. 2 (one
/// site, N replicas) and Eq. 10 (many sites, one replica each) are its two
/// special cases; the Markov fault schedules of sim/recovery_faults.hpp
/// sample this model over time. Returns 0 for an empty placement; throws
/// std::invalid_argument on a site with replicas < 1.
double placement_availability(const Instance& instance, const workload::Request& request,
                              const Placement& placement);

/// One constraint violation found by verify_schedule.
struct ScheduleViolation {
    enum class Kind {
        kDecisionCountMismatch,   ///< decisions.size() != requests.size()
        kEmptyPlacement,          ///< admitted without any site
        kUnknownCloudlet,         ///< site references a cloudlet not in the network
        kNonPositiveReplicas,     ///< site with replicas < 1
        kDuplicateSite,           ///< same cloudlet listed twice in one placement
        kCapacityExceeded,        ///< per-slot cloudlet usage above capacity (4)/(9)
        kReliabilityNotMet,       ///< availability below R_i (2)/(10)
    };
    Kind kind;
    std::string detail;
};

struct VerificationReport {
    std::vector<ScheduleViolation> violations;
    double revenue{0};       ///< recomputed from admitted payments
    std::size_t admitted{0};
    double max_load_factor{0};

    [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Replays `decisions` against a fresh ledger and the reliability model.
/// `capacity_tolerance` allows the pure Algorithm 1 variant's bounded
/// overshoot to be verified against a relaxed capacity (pass the Lemma 8
/// factor xi); 1.0 checks the paper's hard constraints (4)/(9).
VerificationReport verify_schedule(const Instance& instance,
                                   const std::vector<Decision>& decisions,
                                   double capacity_tolerance = 1.0);

}  // namespace vnfr::core
