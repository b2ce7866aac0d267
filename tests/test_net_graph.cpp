#include "net/graph.hpp"

#include <gtest/gtest.h>

namespace vnfr::net {
namespace {

TEST(Graph, StartsEmpty) {
    Graph g;
    EXPECT_EQ(g.node_count(), 0u);
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, BulkConstruction) {
    Graph g(5);
    EXPECT_EQ(g.node_count(), 5u);
    EXPECT_TRUE(g.has_node(NodeId{4}));
    EXPECT_FALSE(g.has_node(NodeId{5}));
}

TEST(Graph, AddEdgeIsSymmetric) {
    Graph g(3);
    g.add_edge(NodeId{0}, NodeId{1});
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_TRUE(g.has_edge(NodeId{0}, NodeId{1}));
    EXPECT_TRUE(g.has_edge(NodeId{1}, NodeId{0}));
    EXPECT_FALSE(g.has_edge(NodeId{0}, NodeId{2}));
    EXPECT_FALSE(g.has_edge(NodeId{0}, NodeId{7}));
}

TEST(Graph, RejectsSelfLoop) {
    Graph g(2);
    EXPECT_THROW(g.add_edge(NodeId{0}, NodeId{0}), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
    Graph g(2);
    g.add_edge(NodeId{0}, NodeId{1});
    EXPECT_THROW(g.add_edge(NodeId{0}, NodeId{1}), std::invalid_argument);
    EXPECT_THROW(g.add_edge(NodeId{1}, NodeId{0}), std::invalid_argument);
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, RejectsUnknownEndpoints) {
    Graph g(2);
    EXPECT_THROW(g.add_edge(NodeId{0}, NodeId{7}), std::invalid_argument);
    EXPECT_THROW(g.add_edge(NodeId{}, NodeId{1}), std::invalid_argument);
    EXPECT_THROW((void)g.neighbors(NodeId{2}), std::invalid_argument);
}

TEST(Graph, NeighborsAndDegree) {
    Graph g(4);
    g.add_edge(NodeId{0}, NodeId{2});
    g.add_edge(NodeId{0}, NodeId{1});
    g.add_edge(NodeId{3}, NodeId{0});
    const auto hub = g.neighbors(NodeId{0});
    ASSERT_EQ(hub.size(), 3u);
    // In the order the edges were added.
    EXPECT_EQ(hub[0], NodeId{2});
    EXPECT_EQ(hub[1], NodeId{1});
    EXPECT_EQ(hub[2], NodeId{3});
    ASSERT_EQ(g.neighbors(NodeId{1}).size(), 1u);
    EXPECT_EQ(g.neighbors(NodeId{1})[0], NodeId{0});
}

}  // namespace
}  // namespace vnfr::net
