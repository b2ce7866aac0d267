#include "net/generators.hpp"

#include <stdexcept>

namespace vnfr::net {

Graph erdos_renyi(std::size_t n, double p, common::Rng& rng) {
    if (p < 0.0 || p > 1.0) throw std::invalid_argument("erdos_renyi: p outside [0,1]");
    Graph g(n);
    // Random spanning tree: attach node i to a uniformly random earlier node.
    for (std::size_t i = 1; i < n; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        g.add_edge(NodeId{static_cast<std::int64_t>(i)}, NodeId{static_cast<std::int64_t>(j)});
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const NodeId a{static_cast<std::int64_t>(i)};
            const NodeId b{static_cast<std::int64_t>(j)};
            if (!g.has_edge(a, b) && rng.bernoulli(p)) g.add_edge(a, b);
        }
    }
    return g;
}

Graph ring(std::size_t n) {
    if (n < 3) throw std::invalid_argument("ring: need at least 3 nodes");
    Graph g(n);
    for (std::size_t i = 0; i < n; ++i) {
        g.add_edge(NodeId{static_cast<std::int64_t>(i)},
                   NodeId{static_cast<std::int64_t>((i + 1) % n)});
    }
    return g;
}

}  // namespace vnfr::net
