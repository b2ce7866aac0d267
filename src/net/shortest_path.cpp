#include "net/shortest_path.hpp"

#include <queue>
#include <stdexcept>

namespace vnfr::net {

std::vector<int> bfs_hops(const Graph& g, NodeId source) {
    if (!g.has_node(source)) throw std::invalid_argument("bfs_hops: unknown source");
    std::vector<int> hops(g.node_count(), -1);
    std::queue<NodeId> q;
    hops[source.index()] = 0;
    q.push(source);
    while (!q.empty()) {
        const NodeId u = q.front();
        q.pop();
        for (const Adjacency& adj : g.neighbors(u)) {
            if (hops[adj.neighbor.index()] == -1) {
                hops[adj.neighbor.index()] = hops[u.index()] + 1;
                q.push(adj.neighbor);
            }
        }
    }
    return hops;
}

std::vector<std::vector<int>> all_pairs_hops(const Graph& g) {
    std::vector<std::vector<int>> out;
    out.reserve(g.node_count());
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        out.push_back(bfs_hops(g, NodeId{static_cast<std::int64_t>(v)}));
    }
    return out;
}

}  // namespace vnfr::net
