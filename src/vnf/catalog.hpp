// The set F of VNF types offered by the provider.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "vnf/reliability.hpp"
#include "vnf/vnf_type.hpp"

namespace vnfr::vnf {

/// Immutable-after-build registry of VNF types, indexed by VnfTypeId. Each
/// type carries its Eq. 3 ReplicaRow, built once in add().
class Catalog {
  public:
    /// Registers a type; returns its id. Throws std::invalid_argument if the
    /// compute demand is non-positive or the reliability is outside (0, 1).
    VnfTypeId add(std::string name, double compute_units, double reliability);

    [[nodiscard]] std::size_t size() const { return types_.size(); }
    [[nodiscard]] bool empty() const { return types_.empty(); }

    /// Throws std::out_of_range for unknown ids.
    [[nodiscard]] const VnfType& get(VnfTypeId id) const;

    [[nodiscard]] std::span<const VnfType> types() const { return types_; }

    /// Convenience accessors matching the paper's c(f_i) / r(f_i) notation.
    [[nodiscard]] double compute_units(VnfTypeId id) const { return get(id).compute_units; }
    [[nodiscard]] double reliability(VnfTypeId id) const { return get(id).reliability; }

    /// The Eq. 3 constants of type `id`, for vnf::onsite_replicas. Throws
    /// std::out_of_range for unknown ids.
    [[nodiscard]] const ReplicaRow& replica_row(VnfTypeId id) const {
        return rows_[get(id).id.index()];
    }

    /// The paper's evaluation setting: 10 VNF types with reliabilities drawn
    /// from [0.9, 0.9999] and compute demands from {1, 2, 3} [15]. Drawn
    /// deterministically from `rng`.
    static Catalog paper_default(common::Rng& rng);

  private:
    std::vector<VnfType> types_;
    std::vector<ReplicaRow> rows_;  ///< parallel to types_
};

}  // namespace vnfr::vnf
