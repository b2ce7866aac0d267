#include "net/shortest_path.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/generators.hpp"

namespace vnfr::net {
namespace {

Graph diamond() {
    // 0 -1- 1 -1- 3,  0 -3- 2 -1- 3, plus a direct heavy 0-3.
    Graph g(4);
    g.add_edge(NodeId{0}, NodeId{1}, 1.0);
    g.add_edge(NodeId{1}, NodeId{3}, 1.0);
    g.add_edge(NodeId{0}, NodeId{2}, 3.0);
    g.add_edge(NodeId{2}, NodeId{3}, 1.0);
    g.add_edge(NodeId{0}, NodeId{3}, 5.0);
    return g;
}

TEST(BfsHops, CountsEdgesNotWeights) {
    const Graph g = diamond();
    const auto hops = bfs_hops(g, NodeId{0});
    EXPECT_EQ(hops[0], 0);
    EXPECT_EQ(hops[3], 1);  // direct heavy edge is 1 hop
    EXPECT_EQ(hops[1], 1);
    EXPECT_EQ(hops[2], 1);
}

TEST(BfsHops, UnreachableIsMinusOne) {
    Graph g(3);
    g.add_edge(NodeId{0}, NodeId{1});
    EXPECT_EQ(bfs_hops(g, NodeId{0})[2], -1);
}

TEST(AllPairs, SymmetricMatrix) {
    common::Rng rng(3);
    const Graph g = erdos_renyi(12, 0.4, rng, true);
    const auto hops = all_pairs_hops(g);
    for (std::size_t a = 0; a < g.node_count(); ++a) {
        for (std::size_t b = 0; b < g.node_count(); ++b) {
            EXPECT_EQ(hops[a][b], hops[b][a]);
        }
        EXPECT_EQ(hops[a][a], 0);
    }
}

}  // namespace
}  // namespace vnfr::net
