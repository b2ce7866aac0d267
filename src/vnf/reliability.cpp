#include "vnf/reliability.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/math.hpp"
#include "vnf/catalog.hpp"

namespace vnfr::vnf {

double onsite_availability(double cloudlet_rel, double vnf_rel, int replicas) {
    common::require_open_unit(cloudlet_rel, "cloudlet reliability");
    common::require_open_unit(vnf_rel, "VNF reliability");
    if (replicas < 0) throw std::invalid_argument("onsite_availability: negative replicas");
    return cloudlet_rel * common::at_least_one(vnf_rel, replicas);
}

std::optional<int> min_onsite_replicas(double cloudlet_rel, double vnf_rel,
                                       double requirement) {
    common::require_open_unit(cloudlet_rel, "cloudlet reliability");
    common::require_open_unit(vnf_rel, "VNF reliability");
    common::require_open_unit(requirement, "reliability requirement");
    // Even infinitely many instances cannot beat the cloudlet's own
    // reliability: P(A) -> r(c) as N -> inf (Eq. 2). The margin also
    // rejects cloudlets sitting within rounding distance of R_i, where the
    // closed form's log argument collapses toward 0 and the replica count
    // diverges (r(c_j) = R_i ± 1e-12 both land here).
    if (cloudlet_rel <= requirement + kOnsiteFeasibilityMargin) return std::nullopt;

    // Closed form (Eq. 3): N = ceil( ln(1 - R/r_c) / ln(1 - r_f) ). The
    // r(c_j) > R_i guard above keeps the log argument inside (0, 1).
    const double target = 1.0 - requirement / cloudlet_rel;
    VNFR_CHECK(target > 0.0 && target < 1.0, "Eq. (3) log argument with r_c=",
               cloudlet_rel, " R=", requirement);
    const double n_real = std::log(target) / common::log1m(vnf_rel);
    // Defined outcome instead of a huge N_ij (or UB casting inf to int):
    // a count beyond the ceiling is infeasible, not astronomically priced.
    if (!(n_real < static_cast<double>(kMaxOnsiteReplicas))) return std::nullopt;
    int n = std::max(1, static_cast<int>(std::ceil(n_real - 1e-12)));

    // The closed form can round the wrong way at the boundary; nudge to the
    // exact minimum.
    while (onsite_availability(cloudlet_rel, vnf_rel, n) < requirement) {
        if (++n > kMaxOnsiteReplicas) return std::nullopt;
    }
    while (n > 1 && onsite_availability(cloudlet_rel, vnf_rel, n - 1) >= requirement) --n;
    return n;
}

ReplicaRow::ReplicaRow(double vnf_rel)
    : vnf_rel_(common::require_open_unit(vnf_rel, "VNF reliability")),
      log1m_(common::log1m(vnf_rel)) {
    // common::at_least_one(vnf_rel, n) for n >= 1 and vnf_rel in (0, 1)
    // is -expm1(n * log1p(-vnf_rel)); log1m_ is that log1p, taken once.
    // at_least_one never exceeds 1, so the first exact 1.0 ends the
    // informative part of the row.
    at_least_one_.reserve(kReplicaRowCap);
    for (int n = 1; n <= kReplicaRowCap; ++n) {
        at_least_one_.push_back(-std::expm1(static_cast<double>(n) * log1m_));
        if (at_least_one_.back() >= 1.0) break;
    }
}

std::optional<int> onsite_replicas(const ReplicaRow& row, double cloudlet_rel,
                                   double requirement) {
    // min_onsite_replicas step for step, with r(f_i)'s factors read from
    // `row`: the bit-equal inputs make the outcome identical.
    common::require_open_unit(cloudlet_rel, "cloudlet reliability");
    common::require_open_unit(requirement, "reliability requirement");
    if (cloudlet_rel <= requirement + kOnsiteFeasibilityMargin) return std::nullopt;

    const double target = 1.0 - requirement / cloudlet_rel;
    VNFR_CHECK(target > 0.0 && target < 1.0, "Eq. (3) log argument with r_c=",
               cloudlet_rel, " R=", requirement);
    const double n_real = std::log(target) / row.log1m();
    if (!(n_real < static_cast<double>(kMaxOnsiteReplicas))) return std::nullopt;
    int n = std::max(1, static_cast<int>(std::ceil(n_real - 1e-12)));

    while (cloudlet_rel * row.at_least_one(n) < requirement) {
        if (++n > kMaxOnsiteReplicas) return std::nullopt;
    }
    while (n > 1 && cloudlet_rel * row.at_least_one(n - 1) >= requirement) --n;
    return n;
}

OffsiteLogTable::OffsiteLogTable(const Catalog& catalog,
                                 std::span<const double> cloudlet_rels)
    : types_(catalog.size()), cloudlets_(cloudlet_rels.size()) {
    logs_.reserve(types_ * cloudlets_);
    for (const VnfType& type : catalog.types()) {
        for (std::size_t j = 0; j < cloudlets_; ++j) {
            const double log_pair = offsite_log_failure(type.reliability, cloudlet_rels[j]);
            // < 0 whenever both reliabilities are in (0, 1), which keeps
            // Algorithm 2's normalized price w_j >= 0.
            VNFR_CHECK(log_pair < 0.0, "offsite log-failure must be negative for type ",
                       type.id.value, " on cloudlet ", j);
            logs_.push_back(log_pair);
        }
    }
}

std::span<const double> OffsiteLogTable::row(VnfTypeId vnf) const {
    if (!vnf.valid() || vnf.index() >= types_)
        throw std::out_of_range("OffsiteLogTable::row: unknown VnfTypeId");
    return std::span<const double>(logs_).subspan(vnf.index() * cloudlets_, cloudlets_);
}

double offsite_log_failure(double vnf_rel, double cloudlet_rel) {
    common::require_open_unit(vnf_rel, "VNF reliability");
    common::require_open_unit(cloudlet_rel, "cloudlet reliability");
    return common::log1m(vnf_rel * cloudlet_rel);
}

}  // namespace vnfr::vnf
