#include "net/algorithms.hpp"

#include <queue>

namespace vnfr::net {

Components connected_components(const Graph& g) {
    Components out;
    out.label.assign(g.node_count(), -1);
    for (std::size_t start = 0; start < g.node_count(); ++start) {
        if (out.label[start] != -1) continue;
        std::queue<NodeId> q;
        q.push(NodeId{static_cast<std::int64_t>(start)});
        out.label[start] = out.count;
        while (!q.empty()) {
            const NodeId u = q.front();
            q.pop();
            for (const Adjacency& adj : g.neighbors(u)) {
                if (out.label[adj.neighbor.index()] == -1) {
                    out.label[adj.neighbor.index()] = out.count;
                    q.push(adj.neighbor);
                }
            }
        }
        ++out.count;
    }
    return out;
}

bool is_connected(const Graph& g) {
    if (g.node_count() == 0) return true;
    return connected_components(g).count == 1;
}

}  // namespace vnfr::net
