#include "edge/mec_network.hpp"

#include <cmath>
#include <stdexcept>

#include "common/math.hpp"
#include "net/shortest_path.hpp"

namespace vnfr::edge {

MecNetwork::MecNetwork(net::Graph graph)
    : graph_(std::move(graph)), cloudlet_by_node_(graph_.node_count(), CloudletId{}) {}

CloudletId MecNetwork::add_cloudlet(NodeId node, double capacity, double reliability) {
    if (!graph_.has_node(node)) throw std::invalid_argument("MecNetwork: unknown AP node");
    if (!(capacity > 0.0)) throw std::invalid_argument("MecNetwork: non-positive capacity");
    common::require_open_unit(reliability, "cloudlet reliability");
    if (cloudlet_by_node_[node.index()].valid())
        throw std::invalid_argument("MecNetwork: node already hosts a cloudlet");
    const CloudletId id{static_cast<std::int64_t>(cloudlets_.size())};
    cloudlets_.push_back(Cloudlet{id, node, capacity, reliability});
    cloudlet_by_node_[node.index()] = id;
    hop_cache_.clear();  // invalidated by topology membership change
    return id;
}

void MecNetwork::attach_random_cloudlets(const CloudletAttachment& spec, common::Rng& rng) {
    if (spec.count > graph_.node_count())
        throw std::invalid_argument("MecNetwork: more cloudlets than APs");
    // Written so that a NaN bound fails: every comparison with NaN is false.
    if (!(spec.capacity_min > 0.0) || !(spec.capacity_max >= spec.capacity_min) ||
        !std::isfinite(spec.capacity_max))
        throw std::invalid_argument("MecNetwork: bad capacity range");
    if (!(spec.reliability_min > 0.0) || !(spec.reliability_max < 1.0) ||
        !(spec.reliability_max >= spec.reliability_min))
        throw std::invalid_argument("MecNetwork: bad reliability range");
    const auto nodes = rng.sample_without_replacement(graph_.node_count(), spec.count);
    for (const std::size_t node : nodes) {
        const double cap = rng.uniform(spec.capacity_min, spec.capacity_max);
        const double rel = rng.uniform(spec.reliability_min, spec.reliability_max);
        add_cloudlet(NodeId{static_cast<std::int64_t>(node)}, cap, rel);
    }
}

const Cloudlet& MecNetwork::cloudlet(CloudletId id) const {
    if (!id.valid() || id.index() >= cloudlets_.size())
        throw std::out_of_range("MecNetwork: unknown cloudlet");
    return cloudlets_[id.index()];
}

std::vector<double> MecNetwork::capacities() const {
    std::vector<double> out;
    out.reserve(cloudlets_.size());
    for (const Cloudlet& c : cloudlets_) out.push_back(c.capacity);
    return out;
}

std::vector<double> MecNetwork::reliabilities() const {
    std::vector<double> out;
    out.reserve(cloudlets_.size());
    for (const Cloudlet& c : cloudlets_) out.push_back(c.reliability);
    return out;
}

int MecNetwork::hop_distance(CloudletId a, CloudletId b) const {
    const Cloudlet& ca = cloudlet(a);
    const Cloudlet& cb = cloudlet(b);
    if (hop_cache_.empty()) hop_cache_ = net::all_pairs_hops(graph_);
    return hop_cache_[ca.node.index()][cb.node.index()];
}

int MecNetwork::hop_distance_from(NodeId node, CloudletId c) const {
    if (!graph_.has_node(node)) throw std::invalid_argument("MecNetwork: unknown AP node");
    const Cloudlet& target = cloudlet(c);
    if (hop_cache_.empty()) hop_cache_ = net::all_pairs_hops(graph_);
    return hop_cache_[node.index()][target.node.index()];
}

}  // namespace vnfr::edge
