#include "net/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace vnfr::net {

Graph::Graph(std::size_t count) : adjacency_(count) {}

void Graph::add_edge(NodeId a, NodeId b) {
    check_node(a, "add_edge endpoint a");
    check_node(b, "add_edge endpoint b");
    if (a == b) throw std::invalid_argument("Graph::add_edge: self-loop");
    if (has_edge(a, b)) throw std::invalid_argument("Graph::add_edge: duplicate edge");
    adjacency_[a.index()].push_back(b);
    adjacency_[b.index()].push_back(a);
    ++edge_count_;
}

bool Graph::has_node(NodeId v) const {
    return v.valid() && v.index() < adjacency_.size();
}

bool Graph::has_edge(NodeId a, NodeId b) const {
    if (!has_node(a) || !has_node(b)) return false;
    // Scan the smaller adjacency list.
    const std::vector<NodeId>& na = adjacency_[a.index()];
    const std::vector<NodeId>& nb = adjacency_[b.index()];
    return na.size() <= nb.size() ? std::find(na.begin(), na.end(), b) != na.end()
                                  : std::find(nb.begin(), nb.end(), a) != nb.end();
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
    check_node(v, "neighbors");
    return adjacency_[v.index()];
}

void Graph::check_node(NodeId v, const char* what) const {
    if (!has_node(v)) {
        throw std::invalid_argument(std::string("Graph: unknown node in ") + what);
    }
}

}  // namespace vnfr::net
