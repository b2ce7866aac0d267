#include "vnf/catalog.hpp"

#include <stdexcept>
#include <utility>

namespace vnfr::vnf {

VnfTypeId Catalog::add(std::string name, double compute_units, double reliability) {
    if (compute_units <= 0.0)
        throw std::invalid_argument("Catalog::add: non-positive compute demand");
    ReplicaRow row(reliability);  // validates the reliability
    const VnfTypeId id{static_cast<std::int64_t>(types_.size())};
    types_.push_back(VnfType{id, std::move(name), compute_units, reliability});
    rows_.push_back(std::move(row));
    return id;
}

const VnfType& Catalog::get(VnfTypeId id) const {
    if (!id.valid() || id.index() >= types_.size())
        throw std::out_of_range("Catalog::get: unknown VnfTypeId");
    return types_[id.index()];
}

Catalog Catalog::paper_default(common::Rng& rng) {
    static const char* kNames[] = {
        "firewall",       "load-balancer", "ids",            "nat",
        "proxy",          "dpi",           "wan-optimizer",  "vpn-gateway",
        "traffic-shaper", "cache",
    };
    Catalog cat;
    for (const char* name : kNames) {
        const double compute = static_cast<double>(rng.uniform_int(1, 3));
        const double reliability = rng.uniform(0.9, 0.9999);
        cat.add(name, compute, reliability);
    }
    return cat;
}

}  // namespace vnfr::vnf
