// Structural graph utilities: connectivity and components.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "net/graph.hpp"

namespace vnfr::net {

/// True when every node is reachable from every other (a single component
/// covering the whole graph). The empty graph counts as connected.
bool is_connected(const Graph& g);

/// Component label per node, labels dense in [0, count).
struct Components {
    std::vector<int> label;
    int count{0};
};

Components connected_components(const Graph& g);

}  // namespace vnfr::net
