#include "core/instance.hpp"

#include <stdexcept>
#include <string>

#include "net/topology_zoo.hpp"

namespace vnfr::core {

void validate_request(const Instance& instance, const workload::Request& request) {
    const auto fail = [&](const char* what) {
        throw std::invalid_argument("Instance: request " + std::to_string(request.id.value) +
                                    " " + what);
    };
    if (!request.fits_horizon(instance.horizon)) fail("does not fit the horizon");
    if (!request.vnf.valid() || request.vnf.index() >= instance.catalog.size()) {
        fail("references unknown VNF type");
    }
    // Negated comparisons so that NaN fails them too.
    if (!(request.requirement > 0.0 && request.requirement < 1.0)) {
        fail("requirement outside (0,1)");
    }
    if (!(request.payment > 0.0)) fail("non-positive payment");
    if (request.source.valid() && !instance.network.graph().has_node(request.source)) {
        fail("has an unknown source AP");
    }
}

void Instance::validate() const {
    if (network.cloudlet_count() == 0)
        throw std::invalid_argument("Instance: no cloudlets");
    if (catalog.empty()) throw std::invalid_argument("Instance: empty VNF catalog");
    if (horizon <= 0) throw std::invalid_argument("Instance: non-positive horizon");
    TimeSlot prev_arrival = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const workload::Request& r = requests[i];
        validate_request(*this, r);
        if (r.arrival < prev_arrival) {
            throw std::invalid_argument("Instance: requests not in arrival order at " +
                                        std::to_string(i));
        }
        prev_arrival = r.arrival;
    }
}

void InstanceConfig::set_reliability_ratio(double k) {
    if (k < 1.0) throw std::invalid_argument("set_reliability_ratio: K must be >= 1");
    cloudlets.reliability_min = cloudlets.reliability_max / k;
}

Instance make_instance(const InstanceConfig& config, common::Rng& rng) {
    Instance inst{edge::MecNetwork(net::load_topology(config.topology)),
                  vnf::Catalog::paper_default(rng), config.workload.horizon, {}};
    inst.network.attach_random_cloudlets(config.cloudlets, rng);
    inst.requests = workload::generate(config.workload, inst.catalog, rng);
    // Users issue requests through a uniformly random nearby AP.
    const auto node_count = static_cast<std::int64_t>(inst.network.graph().node_count());
    for (workload::Request& r : inst.requests) {
        r.source = NodeId{rng.uniform_int(0, node_count - 1)};
    }
    inst.validate();
    return inst;
}

}  // namespace vnfr::core
