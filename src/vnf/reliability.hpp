// Replica mathematics from Section III of the paper.
//
// On-site scheme (all instances in one cloudlet c_j):
//   P(A_i) = r(c_j) * (1 - (1 - r(f_i))^N)                      (Eq. 2)
//   N_ij   = ceil( log_{1-r(f_i)} (1 - R_i / r(c_j)) )          (Eq. 3)
//   feasible only when r(c_j) > R_i.
//
// Off-site scheme (one instance per selected cloudlet):
//   P(A_i) = 1 - prod_j (1 - r(f_i) * r(c_j))                   (Eq. 10)
// Only Eq. 10's per-site term lives here; the whole product for any
// placement is core::placement_availability.
//
// All products are accumulated in log space (log1p/expm1) so that
// reliabilities like 0.9999 do not lose precision.
//
// The schedulers evaluate Eq. 3 and Eq. 10's per-site term once per
// (request, cloudlet) pair, so the factors that depend only on the VNF
// type and the cloudlet are tabulated once: a ReplicaRow per catalog type
// (held by vnf::Catalog) and an OffsiteLogTable per scheduler or model.
// onsite_replicas and the table return exactly what the reference
// functions min_onsite_replicas and offsite_log_failure return; outside
// src/vnf only the tabulated forms are called.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"

namespace vnfr::vnf {

class Catalog;

/// Availability of a request served by `replicas` instances of a VNF with
/// instance reliability `vnf_rel` all placed in one cloudlet with
/// reliability `cloudlet_rel` (paper Eq. 2). Zero replicas yields 0.
double onsite_availability(double cloudlet_rel, double vnf_rel, int replicas);

/// Feasibility margin for Eq. 3: when r(c_j) - R_i falls inside this
/// margin the log argument 1 - R_i/r(c_j) collapses toward 0 and the
/// closed-form replica count diverges (ln of a subnormal over ln(1-r_f)).
/// Such cloudlets are treated as unable to meet the requirement — the
/// replica counts they would need are physically meaningless anyway.
inline constexpr double kOnsiteFeasibilityMargin = 1e-9;

/// Ceiling on a meaningful Eq. 3 replica count. A requirement that the
/// closed form can only meet with more instances than this is rejected
/// (std::nullopt) instead of returning an astronomically large N_ij that
/// no cloudlet could host and that would overflow downstream demand
/// arithmetic.
inline constexpr int kMaxOnsiteReplicas = 1'000'000;

/// Minimum number of primary+backup instances required in a cloudlet of
/// reliability `cloudlet_rel` so that onsite_availability >= `requirement`
/// (paper Eq. 3). Returns std::nullopt when the cloudlet cannot meet the
/// requirement at any replica count (cloudlet_rel <= requirement +
/// kOnsiteFeasibilityMargin) or only with more than kMaxOnsiteReplicas
/// instances.
///
/// The returned count is exact: availability(N) >= requirement and
/// availability(N-1) < requirement, guarded against floating point rounding
/// of the closed-form logarithm.
std::optional<int> min_onsite_replicas(double cloudlet_rel, double vnf_rel,
                                       double requirement);

/// Log-space helper: log(1 - vnf_rel * cloudlet_rel), the per-cloudlet
/// contribution to the off-site failure product. Always negative.
double offsite_log_failure(double vnf_rel, double cloudlet_rel);

/// Most entries a ReplicaRow tabulates. The paper's r(f_i) in
/// [0.9, 0.9999] saturate within 17 entries; weaker VNFs read the
/// expression past the cap.
inline constexpr int kReplicaRowCap = 64;

/// Eq. 3's constants for one VNF type of reliability r(f_i): ln(1 - r_f)
/// and common::at_least_one(r_f, n), computed once and bit-equal to the
/// values min_onsite_replicas computes per call.
class ReplicaRow {
  public:
    /// Throws std::invalid_argument unless `vnf_rel` lies in (0, 1).
    explicit ReplicaRow(double vnf_rel);

    [[nodiscard]] double vnf_rel() const { return vnf_rel_; }
    /// ln(1 - r(f_i)), bit-equal to common::log1m(vnf_rel()).
    [[nodiscard]] double log1m() const { return log1m_; }
    /// 1 - (1 - r(f_i))^n, bit-equal to common::at_least_one(vnf_rel(), n):
    /// tabulated for n = 1 up to the first exact 1.0 (at most
    /// kReplicaRowCap entries), the expression itself otherwise.
    [[nodiscard]] double at_least_one(int n) const {
        // n <= 0 wraps to a huge index and takes the expression.
        const auto slot = static_cast<std::size_t>(n) - 1;
        return slot < at_least_one_.size() ? at_least_one_[slot]
                                           : common::at_least_one(vnf_rel_, n);
    }
    /// Tabulated entries, n = 1 .. size().
    [[nodiscard]] std::size_t size() const { return at_least_one_.size(); }

  private:
    double vnf_rel_;
    double log1m_;
    std::vector<double> at_least_one_;  ///< [n - 1] = at_least_one(r_f, n)
};

/// Eq. 3 for a VNF type with constants `row` on a cloudlet of reliability
/// `cloudlet_rel`: exactly min_onsite_replicas(cloudlet_rel,
/// row.vnf_rel(), requirement). It runs the reference's control flow and
/// compares the same products r_c * at_least_one(r_f, n), read from the
/// row. Validates `cloudlet_rel` and `requirement` per call; r(f_i) was
/// validated when the row was built.
std::optional<int> onsite_replicas(const ReplicaRow& row, double cloudlet_rel,
                                   double requirement);

/// ln(1 - r(f_i) r(c_j)) for every (catalog type, cloudlet) pair, each
/// entry bit-equal to offsite_log_failure(r(f_i), r(c_j)) and checked
/// negative once, at construction.
class OffsiteLogTable {
  public:
    /// `cloudlet_rels[j]` is r(c_j). Throws std::invalid_argument for a
    /// reliability outside (0, 1).
    OffsiteLogTable(const Catalog& catalog, std::span<const double> cloudlet_rels);

    /// The entries of type `vnf`, one per cloudlet in index order. Throws
    /// std::out_of_range for an unknown type.
    [[nodiscard]] std::span<const double> row(VnfTypeId vnf) const;
    [[nodiscard]] std::size_t cloudlet_count() const { return cloudlets_; }

  private:
    std::size_t types_;
    std::size_t cloudlets_;
    std::vector<double> logs_;  ///< type-major: logs_[type * cloudlets_ + j]
};

}  // namespace vnfr::vnf
