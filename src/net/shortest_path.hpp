// Hop-count shortest paths over net::Graph.
//
// MecNetwork caches the all-pairs hop matrix; the placement statistics
// (sim::placement_stats) read inter-site and access hop counts from it.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "net/graph.hpp"

namespace vnfr::net {

/// Unweighted hop distances by BFS (each edge counts 1 regardless of weight).
std::vector<int> bfs_hops(const Graph& g, NodeId source);

/// All-pairs hop counts (-1 when unreachable).
std::vector<std::vector<int>> all_pairs_hops(const Graph& g);

}  // namespace vnfr::net
