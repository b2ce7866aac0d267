// Undirected graph modelling the MEC access network G = (V, E): nodes are
// access points (APs), edges are links between APs. The model reads the
// graph only for hop counts, so edges carry no weight.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace vnfr::net {

/// Undirected simple graph over nodes 0 .. node_count() - 1.
class Graph {
  public:
    Graph() = default;

    /// Create `count` isolated nodes at once.
    explicit Graph(std::size_t count);

    /// Adds an undirected edge. Throws std::invalid_argument on self-loops,
    /// unknown endpoints or duplicate edges.
    void add_edge(NodeId a, NodeId b);

    [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
    [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

    [[nodiscard]] bool has_node(NodeId v) const;
    [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;

    /// Neighbours of `v` in the order their edges were added.
    [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const;

  private:
    void check_node(NodeId v, const char* what) const;

    std::vector<std::vector<NodeId>> adjacency_;
    std::size_t edge_count_{0};
};

}  // namespace vnfr::net
