// The MEC infrastructure: an AP graph plus the cloudlets attached to a
// subset of its APs (the paper's G = (V, E) with C, |C| <= |V|).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "edge/cloudlet.hpp"
#include "net/graph.hpp"

namespace vnfr::edge {

/// Parameters for attaching randomly sized cloudlets to a topology.
struct CloudletAttachment {
    std::size_t count{10};
    double capacity_min{80};
    double capacity_max{120};
    double reliability_min{0.95};
    double reliability_max{0.999};
};

class MecNetwork {
  public:
    /// Takes ownership of the AP graph; cloudlets are added afterwards.
    explicit MecNetwork(net::Graph graph);

    /// Attach one cloudlet to AP `node`. Throws std::invalid_argument for
    /// unknown nodes, non-positive capacity, reliability outside (0,1) or a
    /// node that already hosts a cloudlet.
    CloudletId add_cloudlet(NodeId node, double capacity, double reliability);

    /// Attach `spec.count` cloudlets to distinct randomly chosen APs with
    /// uniform capacities/reliabilities. Throws if count exceeds |V|.
    void attach_random_cloudlets(const CloudletAttachment& spec, common::Rng& rng);

    [[nodiscard]] const net::Graph& graph() const { return graph_; }
    [[nodiscard]] std::span<const Cloudlet> cloudlets() const { return cloudlets_; }
    [[nodiscard]] std::size_t cloudlet_count() const { return cloudlets_.size(); }

    [[nodiscard]] const Cloudlet& cloudlet(CloudletId id) const;

    /// Capacities indexed by cloudlet id, ready for a ResourceLedger.
    [[nodiscard]] std::vector<double> capacities() const;

    /// Reliabilities indexed by cloudlet id.
    [[nodiscard]] std::vector<double> reliabilities() const;

    /// Hop distance between the APs of two cloudlets (BFS, cached on first
    /// use); -1 when disconnected. Used for off-site traffic-cost reporting.
    [[nodiscard]] int hop_distance(CloudletId a, CloudletId b) const;

    /// Hop distance from an arbitrary AP (e.g. a request's source) to a
    /// cloudlet's AP; -1 when disconnected.
    [[nodiscard]] int hop_distance_from(NodeId node, CloudletId c) const;

  private:
    net::Graph graph_;
    std::vector<Cloudlet> cloudlets_;
    std::vector<CloudletId> cloudlet_by_node_;
    mutable std::vector<std::vector<int>> hop_cache_;  ///< lazily built
};

}  // namespace vnfr::edge
