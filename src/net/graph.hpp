// Undirected weighted graph modelling the MEC access network G = (V, E):
// nodes are access points (APs), edges are links between APs.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace vnfr::net {

/// One endpoint record in a node's adjacency list.
struct Adjacency {
    NodeId neighbor;
    double weight;       ///< Link weight (latency/length); must be > 0.
    std::size_t edge_id; ///< Index into Graph's edge table.
};

struct Edge {
    NodeId a;
    NodeId b;
    double weight;
};

/// Undirected simple graph with positive edge weights. Nodes carry optional
/// names and 2D coordinates (the embedded real topologies use them for
/// distance-proportional weights).
class Graph {
  public:
    Graph() = default;

    /// Create `count` isolated nodes at once.
    explicit Graph(std::size_t count);

    /// Adds a node, returns its id. Name is optional and for reporting only.
    NodeId add_node(std::string name = {}, double x = 0.0, double y = 0.0);

    /// Adds an undirected edge. Throws std::invalid_argument on self-loops,
    /// unknown endpoints, non-positive weight or duplicate edges.
    std::size_t add_edge(NodeId a, NodeId b, double weight = 1.0);

    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
    [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

    [[nodiscard]] bool has_node(NodeId v) const;
    [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;
    [[nodiscard]] std::optional<double> edge_weight(NodeId a, NodeId b) const;

    [[nodiscard]] std::span<const Adjacency> neighbors(NodeId v) const;
    [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

    [[nodiscard]] const std::string& node_name(NodeId v) const;
    [[nodiscard]] double node_x(NodeId v) const;
    [[nodiscard]] double node_y(NodeId v) const;

    [[nodiscard]] std::size_t degree(NodeId v) const;

    /// Euclidean distance between node coordinates.
    [[nodiscard]] double euclidean(NodeId a, NodeId b) const;

  private:
    struct Node {
        std::string name;
        double x{0};
        double y{0};
        std::vector<Adjacency> adj;
    };

    void check_node(NodeId v, const char* what) const;

    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
};

}  // namespace vnfr::net
