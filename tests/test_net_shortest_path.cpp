#include "net/shortest_path.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/generators.hpp"

namespace vnfr::net {
namespace {

Graph diamond() {
    // 0 - 1 - 3,  0 - 2 - 3, plus a direct 0 - 3 and a tail 3 - 4.
    Graph g(5);
    g.add_edge(NodeId{0}, NodeId{1});
    g.add_edge(NodeId{1}, NodeId{3});
    g.add_edge(NodeId{0}, NodeId{2});
    g.add_edge(NodeId{2}, NodeId{3});
    g.add_edge(NodeId{0}, NodeId{3});
    g.add_edge(NodeId{3}, NodeId{4});
    return g;
}

TEST(BfsHops, TakesTheFewestHops) {
    const Graph g = diamond();
    const auto hops = bfs_hops(g, NodeId{0});
    EXPECT_EQ(hops[0], 0);
    EXPECT_EQ(hops[3], 1);  // the direct edge, not the two-hop detours
    EXPECT_EQ(hops[1], 1);
    EXPECT_EQ(hops[2], 1);
    EXPECT_EQ(hops[4], 2);
}

TEST(BfsHops, UnreachableIsMinusOne) {
    Graph g(3);
    g.add_edge(NodeId{0}, NodeId{1});
    EXPECT_EQ(bfs_hops(g, NodeId{0})[2], -1);
}

TEST(AllPairs, SymmetricMatrix) {
    common::Rng rng(3);
    const Graph g = erdos_renyi(12, 0.4, rng);
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
